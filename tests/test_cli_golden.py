"""Pinned stdout of the CLI: the sha256 of each command's stdout and its
exit code, so a change that alters any printed byte fails here.

A deliberate output change updates the pinned digest and says why in
CHANGES.md.
"""

import hashlib

import pytest

from cyclechain.cli import main

GOLDEN = [
    ("trees --r 3 --m 4,5,3 --t 2 --by-class", 0,
     "f07b3cf9b7c2f95062e323427c62cfdf989b6f3706972ae7d65230ae3dab9fe0"),
    ("trees --r 3 --m 4,5,3 --t 2 --by-class --pretty", 0,
     "1cd77127c711013bf0ae6c56734153e8d5604b5615042f2a97a7306a47871ad7"),
    ("trees --r 4 --m 5,3,4,6 --count-only", 0,
     "ad66fa14e917e00eecbb245047f129a5d2f2a60366092ebe9d45e6aec9b0ec50"),
    ("covers --r 1 --m 5 --t 2", 0,
     "5e33f73b799295b373f45922119531d08dc72bd99ffa07e3c9f3396c85427d7c"),
    ("covers --r 4 --m 5,3,4,6 --t 2", 0,
     "26d61917de5ed0a813138c225d18389f2166ac395ba552671843c7957e9c22b6"),
    ("certify --r 4 --m 5,5,5,5 --t 3", 0,
     "8e34ba23d67a59273905a7cc7f5343a7292d25e9a07f1f3eca552964d922914a"),
    ("certify --r 3 --m 4,5,4 --pretty", 0,
     "9b1776bdf8e9d3a49350b82f6fa69b106488976bea1be0caedbd7fc227a590f3"),
    ("certify --r 1 --m 3", 0,
     "a17e14695d91220e3d4f3ad227cd48168211d5f13e9811e929fdf74315abea64"),
    ("decompose --r 3 --m 4,5,4 --t 2", 0,
     "c73e3daa535bcb0411e98c44ea235f4d80ee53b0b773ea8fec1bc883d171a499"),
    ("fvector --method paper --r 3 --m 4,5,3 --t 2", 0,
     "9bacde9796aaaaa6c4e43c2fdba93fc2e6d53aa7abba62b0dfa670c00eeec9a4"),
    ("fvector --method paper --r 6 --m 4,4,4,4,4,4", 0,
     "4508f06ba629d13f7eea673a25fe381346bb06f15a92abb685575738f3a1433f"),
    ("hilbert --r 3 --m 4,5,6 --t 2 --expand 50", 0,
     "4328dfa6dc952e9cff1b5cdf76cf0e20ca174d1618e23e6b2cad7d75566ff3e1"),
    ("hilbert --r 1 --m 64 --expand 10000", 0,
     "915c44696dad6fb169c9a0ac04a53341dad3d370438c780b2e5504555c60d611"),
    ("fvector --r 3 --m 4,5,3 --t 2", 0,
     "e6952d43c43c1e97f48b7c76c676b51eb49be9c8ee574417cd5d2f6c5f2311ef"),
    ("fvector --method brute --r 2 --m 3,4 --t 4", 0,
     "8caafba9924cbe8d2ec34fb8924b524fb5b1cfa909dda4cf045c87e098a88e6f"),
    ("verify --family 2,4,1", 5,
     "f08a1e215b0d9aa85f03a3edcca645f5fbf4be6814381da5ca3e86ff3fa16aaa"),
    ("verify --r 3 --m 4,4,4 --face-cap 100", 5,
     "dd77a4493d3bb9a1894de32be37baa2641334b0477a0b42b7a6e9c2975c3d2d3"),
    ("verify --r 6 --m 5,5,5,5,5,5 --checks fvector", 0,
     "96bbc4f341b618de2394406a5fee33ed0143d3c58f1533c9c677bc9786308c07"),
]


@pytest.mark.parametrize("command, code, digest", GOLDEN, ids=[c for c, _, _ in GOLDEN])
def test_stdout_and_exit_code_are_pinned(capsys, command, code, digest):
    got = main(command.split())
    out = capsys.readouterr().out
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)
