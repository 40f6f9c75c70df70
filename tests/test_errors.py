"""The error contract: every bad argument ends in a typed ``PruneKitError``
and exit code 1, and ``cli.main`` catches nothing else."""

import numpy as np
import pytest

import prunekit.pruner as pruner
from prunekit import SparsitySpec, cli
from prunekit.errors import InvalidArgument, InvalidRatio
from prunekit.pruner import split_holdout


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    model, calib = str(root / "model.pkt"), str(root / "calib.pkt")
    assert cli.main(["gen", "--dims", "8,8,4", "--samples", "64",
                     "--out", model, "--calib-out", calib]) == 0
    return root, model, calib


def _prune(pair, *extra):
    root, model, calib = pair
    return ["prune", "--model", model, "--calib", calib, "--sparsity", "0.5",
            "--out", str(root / "pruned.pkt"), *extra]


def _gen(pair, *extra):
    root, _, _ = pair
    return ["gen", "--out", str(root / "m.pkt"), "--calib-out", str(root / "c.pkt"), *extra]


def _verify(pair, *extra):
    return ["verify", "--criterion", "stade", *extra]


# (argv builder, extra flags, a word the error must name)
BAD_ARGUMENTS = {
    "gen-seed": (_gen, ("--seed", "-1"), "seed"),
    "verify-seed": (_verify, ("--seed", "-1"), "seed"),
    "verify-trials": (_verify, ("--trials", "0"), "trials"),
    "prune-holdout-nan": (_prune, ("--criterion", "stade", "--holdout", "nan"), "holdout"),
    "prune-damping-other-criterion": (_prune, ("--criterion", "magnitude", "--damping", "0.1"),
                                      "damping"),
    "prune-damping-negative": (_prune, ("--criterion", "sparsegpt-score", "--damping", "-1"),
                               "damping"),
    "gen-dims-zero": (_gen, ("--dims", "0,4,4"), "dims"),
    "gen-samples": (_gen, ("--samples", "2"), "samples"),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_bad_argument_exits_1_and_names_it(pair, case, capsys):
    build, extra, word = BAD_ARGUMENTS[case]
    assert cli.main(build(pair, *extra)) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and word in err
    assert out == ""  # no summary line: nothing ran to completion


def test_a_bare_value_error_inside_a_run_is_not_caught(pair, monkeypatch):
    # Only a PruneKitError is a validation failure; anything else is a bug
    # and must surface as one, not as exit code 1.
    def broken(scores, spec):
        raise ValueError("bug in build_mask")

    monkeypatch.setattr(pruner, "build_mask", broken)
    with pytest.raises(ValueError, match="bug in build_mask"):
        cli.main(_prune(pair, "--criterion", "stade"))


def test_the_fraction_rule_owns_the_ratio_and_the_holdout():
    rows = np.ones((10, 2))
    assert SparsitySpec(ratio=np.float32(0.5)) == SparsitySpec(ratio=0.5)
    with pytest.raises(InvalidRatio):
        SparsitySpec(ratio=True)
    train, holdout = split_holdout(rows, np.float32(0.25))
    assert train.shape[0] == 8 and holdout.shape[0] == 2
    with pytest.raises(InvalidArgument, match="holdout_fraction"):
        split_holdout(rows, False)
