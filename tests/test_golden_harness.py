"""Golden pins of the harness entry points: the CLI's flag surface, what its
verbs print, and what each paper harness renders, checks and frames.

* The flag surface is every argument of the top-level parser and of every
  subcommand (the ``results`` verbs included): option strings, dest, action,
  default, choices, type, nargs, metavar and required.  Optionals compare
  in any order, positionals in order; help wording is free.
* Each CLI invocation pins its exit code and the SHA-256 of its stdout, with
  temporary paths replaced by ``<tmp>``.
* Each harness runs at a tiny scale and pins the SHA-256 of ``render()``,
  its ``checks()`` dict and, where the result carries a frame, the SHA-256
  of the frame's JSONL bytes.

A change to how the CLI parses or dispatches, or to how a harness drives
``Experiment``, is meant to keep behaviour byte-identical: every value here
must then hold unchanged.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json

import pytest

import repro.cli as cli
from repro.aging.experiment import run_aged_vs_fresh
from repro.experiments import (
    run_figure1,
    run_figure2,
    run_figure3,
    run_figure4,
    run_fresh_vs_steady,
    run_scalability,
    run_transition_zoom,
)
from repro.experiments.config import ExperimentScale
from repro.storage.config import scaled_testbed

TESTBED = scaled_testbed(1.0 / 16.0)
SCALE = ExperimentScale(
    name="golden",
    figure1_duration_s=1.0,
    figure1_repetitions=2,
    figure1_sizes_mb=(8, 16, 24, 32, 48),
    figure2_duration_s=30.0,
    figure2_file_mb=26,
    figure2_testbed_scale=1.0 / 16.0,
    figure3_ops=300,
    figure3_sizes_mb=(8, 64, 256),
    figure4_duration_s=30.0,
    figure4_file_mb=20,
    interval_s=5.0,
)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------- flag surface
def _entry(command: str, action: argparse.Action) -> dict:
    return {
        "command": command,
        "options": list(action.option_strings),
        "dest": action.dest,
        "action": type(action).__name__,
        "default": repr(action.default),
        "choices": None if action.choices is None else list(action.choices),
        "type": None if action.type is None else getattr(action.type, "__name__", repr(action.type)),
        "nargs": repr(action.nargs),
        "metavar": repr(action.metavar),
        "required": action.required,
    }


def _surface(parser: argparse.ArgumentParser, command: str = "") -> dict:
    """``command -> entries`` for ``parser`` and every subcommand below it.

    Optionals sort by option strings, so the order flags are added in (a
    shared parent parser adds its flags first) does not count; positionals
    keep their order, which is how they parse.
    """
    positionals, optionals, surface = [], [], {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                surface.update(_surface(sub, f"{command} {name}".strip()))
        elif isinstance(action, argparse._HelpAction):
            continue
        elif action.option_strings:
            optionals.append(_entry(command, action))
        else:
            positionals.append(_entry(command, action))
    optionals.sort(key=lambda entry: entry["options"])
    surface[command] = positionals + optionals
    return surface


SURFACE_ENTRIES = 105
SURFACE_SHA256 = {
    "": "2019305b4afd8c35e55676a7035320baaf35fdd64f40d67deb16c421f0909d43",
    "age": "660f188856e4a41a29cbc94303b6f8cda51b8d59f6fafaf39e329e944883a073",
    "bench-diff": "69ade7c99eaaead58313a780620885a172048b5d97fca0f997282be75de127d4",
    "cache": "0d855f7dcc7ab719d16baadb7c5eb2cbe1a4afc17c0c694003de3666422efa93",
    "explain": "91b9479a76cd215cb83f907a4f777f88e47ed8059fc37e33c56746e62c77e84c",
    "figure1": "8abc5f71c868112f1ee151dacaf6b1d4e7e197975b1fba1fae0f7beaaff9fde3",
    "figure2": "209ba8d9418ea24cb066150240d76c4a68564d85aaebb2c6f69de9f6423df30c",
    "figure3": "de6a9914878792764edc9a2f6a3c1e78a6502d014f790a5013e75471b8e9497a",
    "figure4": "f4a80af3b3a104136759f576f48aba67418e94248cc0d5e6628fc0d3c8c475ee",
    "lint": "efbaa63536104af2e7d7c249f74bb5881f7185a925837e6139f939b1d14e7d0f",
    "list": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "report": "5e2c3b8889bcc232c593698f000cfa0fb3437e7e1544f0640b63d7825982a7b2",
    "results": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "results export": "85245a4005d02ff5c5a8b56cb99b61d7f87b4c34be3b40cb30141e9733e4b627",
    "results merge": "6b5e297e491081b25e49e881eff5b20dd5a97f17404e3a4f3833c038f0ed4117",
    "results pack": "1202f8bec03928bbe108bb81bc58ef7881f561fa910799f01deef7e1986db1ea",
    "results query": "510f1d51be7720b6c8fd78fe9bd483ec845f6d3643c16c86f9884f3205a26290",
    "results verify": "19f0cab208ab0bc6b8203a2b4422d57ca42258bd4af06d0f78cfa91a63d6e6fd",
    "run": "469b5930402aac95b2eae63024e513ab6b3cd3086ed6e91712ed0e1d78f671b2",
    "scalability": "d1f4797f2ccb6fa7ea7016c8de07040cc782f5bbe7792c238c93710779617d0b",
    "ssd-steady": "20d7371f0aa515199325b2e29509f24eca9aaf48f2a0c0870563792a98f1e101",
    "suite": "e0570c9db69697cc36061e3e4733d183aab63ed703da51acdd192240034e4f0b",
    "survey": "b37719469eb79d3e9ad650c2c4fd621ddc701a1f757f5732296c084f81968880",
    "table1": "1b7bb98670dcc5cc21a2a69a55e43957eadd7df76679e517d88aebf3cced9239",
    "trace": "d1333be69aff51383824cea6ed0b6e20c6ff71879ae237c7cc7b6c78c397597c",
    "zoom": "f91c59454e73545ce99745eaa080bea607e4a33598804d356db8f21c0b40dbdd",
}


def test_cli_surface_has_every_flag():
    surface = _surface(cli._build_parser())
    assert sum(len(entries) for entries in surface.values()) == SURFACE_ENTRIES


def test_cli_surface_is_pinned_per_command():
    surface = _surface(cli._build_parser())
    digests = {
        command: _sha256(json.dumps(entries, sort_keys=True))
        for command, entries in surface.items()
    }
    assert digests == SURFACE_SHA256


# ------------------------------------------------------------------ CLI outputs
def _run_cli(argv, tmp):
    """``(exit code, stdout SHA-256)`` of one CLI call; ``{tmp}`` is a temp dir."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([arg.replace("{tmp}", str(tmp)) for arg in argv])
    return code, _sha256(stdout.getvalue().replace(str(tmp), "<tmp>"))


#: A usage error prints nothing on stdout.
NOTHING = _sha256("")

#: name -> (argv, exit code, stdout SHA-256).
CLI_OUTPUTS = {
    "list": (
        ["list"],
        0, "50b1e4c9b1ef127bbd64d747408ac38f3a1e58f1548df39ce1a7eed8251e062b",
    ),
    "table1": (
        ["table1"],
        0, "16eee2e5c432661353d4f0cd9d5de5f2d4045c9aa17715b12dd80a1ffc5fd06e",
    ),
    "table1-quick-needs-measured": (["table1", "--quick"], 2, NOTHING),
    "paper-scale-suite": (["--paper-scale", "suite", "--quick"], 2, NOTHING),
    "ssd-steady": (
        ["ssd-steady", "--quick", "--scaled-testbed", "0.0625"],
        0, "aaeba7da8cd7eb7bfba23baf0c2ed11f924fc097f9b9742f10f9795a990e2c30",
    ),
    "ssd-steady-unknown-workload": (
        ["ssd-steady", "--quick", "--workload", "no-such-workload"], 2, NOTHING,
    ),
    "scalability": (
        ["scalability", "--quick", "--scaled-testbed", "0.0625", "--clients", "1,2",
         "--snapshot-dir", "{tmp}"],
        0, "e5417644e58f3600dc99513e90e25cb123eee6354706ef6f15fcb4070e2bfd4b",
    ),
    "age-compare": (
        ["age", "--quick", "--scaled-testbed", "0.0625", "--fs", "ext2", "--compare",
         "--out", "{tmp}/aged-ext2.snapshot.json"],
        0, "c7661e0ae91ea5e0da95d487abe50882f2b777b83d4831a76e6879d3d32e22c8",
    ),
    "suite-missing-snapshot": (["suite", "--snapshot", "{tmp}/missing.snapshot.json"], 2, NOTHING),
    "trace-multi-valued-axis": (["trace", "--axis", "seed=0..3"], 2, NOTHING),
}


@pytest.mark.parametrize("name", sorted(CLI_OUTPUTS))
def test_cli_output_is_pinned(name, tmp_path):
    argv, code, digest = CLI_OUTPUTS[name]
    assert _run_cli(argv, tmp_path) == (code, digest)


def _two_benchmark_suite(monkeypatch):
    """Shrink ``default_suite`` to one in-memory and one on-disk component."""
    import repro.core.suite as suite_module

    full_suite = suite_module.default_suite

    def two_benchmarks(testbed=None, quick=False):
        benchmarks = full_suite(testbed, quick=quick)
        return [benchmarks[0], benchmarks[2]]

    monkeypatch.setattr(suite_module, "default_suite", two_benchmarks)


#: name -> (argv, exit code, stdout SHA-256), run over a two-benchmark suite.
SUITE_CLI_OUTPUTS = {
    "suite": (
        ["suite", "--quick", "--scaled-testbed", "0.0625", "--fs", "ext2"],
        0, "3fcc2873fa3c861ac627aeb6a9ca6a7bc6551701b2353dc806ec7238f7e6e7c0",
    ),
    "survey": (
        ["survey", "--quick", "--scaled-testbed", "0.0625", "--fs", "ext2"],
        0, "5de0f41ae4e1c9ba9f5c8d4f469780625ecc6c4c1527a87a74d53551ae8f9b78",
    ),
    "table1-measured": (
        ["table1", "--measured", "--quick", "--scaled-testbed", "0.0625", "--fs", "ext2"],
        0, "86808dd06c4e4b8d4d0095c81d402cd4a220cf1888a9d981b23a8399d2fc5bfd",
    ),
}


@pytest.mark.parametrize("name", sorted(SUITE_CLI_OUTPUTS))
def test_suite_cli_output_is_pinned(name, tmp_path, monkeypatch):
    _two_benchmark_suite(monkeypatch)
    argv, code, digest = SUITE_CLI_OUTPUTS[name]
    assert _run_cli(argv, tmp_path) == (code, digest)


# ------------------------------------------------------------- harness outputs
HARNESSES = {
    "figure1": lambda tmp: run_figure1(fs_type="ext2", testbed=TESTBED, scale=SCALE, seed=3),
    "figure2": lambda tmp: run_figure2(fs_types=("ext2",), scale=SCALE, seed=3),
    "figure3": lambda tmp: run_figure3(
        fs_type="ext2", testbed=TESTBED, scale=SCALE, sizes_mb=(8, 64, 256), seed=3
    ),
    "figure4": lambda tmp: run_figure4(fs_type="ext2", testbed=TESTBED, scale=SCALE, seed=3),
    "aged-vs-fresh": lambda tmp: run_aged_vs_fresh(
        fs_types=("ext2",), testbed=TESTBED, quick=True, snapshot_dir=str(tmp)
    ),
    "ssd-steady": lambda tmp: run_fresh_vs_steady(fs_type="ext4", testbed=TESTBED, quick=True),
    "scalability": lambda tmp: run_scalability(
        fs_type="ext4", clients=(1, 2), testbed=TESTBED, quick=True, snapshot_dir=str(tmp)
    ),
    # The coarse sweep reaches 64 MiB below the cache, so the zoom runs on a
    # machine whose cache is larger than that.
    "zoom": lambda tmp: run_transition_zoom(
        fs_type="ext2", testbed=scaled_testbed(0.25), scale=SCALE, seed=3
    ),
}


def _harness_outputs(result, tmp) -> dict:
    """The render and frame digests and the checks of one harness result."""
    frame = result.to_frame() if hasattr(result, "to_frame") else getattr(result, "frame", None)
    frame_digest = None
    if frame is not None:
        jsonl = io.StringIO()
        frame.to_jsonl(jsonl)
        frame_digest = _sha256(jsonl.getvalue().replace(str(tmp), "<tmp>"))
    return {
        "render": _sha256(result.render().replace(str(tmp), "<tmp>")),
        "checks": result.checks() if hasattr(result, "checks") else None,
        "frame": frame_digest,
    }


#: name -> {"render": SHA-256, "checks": dict or None, "frame": SHA-256 or None}.
HARNESS_OUTPUTS = {
    "aged-vs-fresh": {
        "render": "1803c56e90f6999419f8c5fd34e9bf7145f23430cb3b063534d424cd1eeee34b",
        "checks": None,
        "frame": None,
    },
    "figure1": {
        "render": "56da68ae62a643df16ef7ebbe1997e963d9f25835009bf2f6f94394410b5ced6",
        "checks": {
            "memory_bound_plateau_near_10k_ops": False,
            "order_of_magnitude_drop": True,
            "cliff_between_384_and_512_mb": False,
            "io_bound_rsd_exceeds_memory_bound_rsd": False,
            "io_bound_in_low_hundreds_ops": False,
        },
        "frame": "c9951f574fe59818133f256d4e25eb7a30ca52788236febbeeb306ceeb9543df",
    },
    "figure2": {
        "render": "c12bd8c9e83c8c3e414e3dcb7ce705048d19af2cb14d7855ca3d2b60f42be4c4",
        "checks": {
            "similar_at_cold_start": True,
            "similar_when_warm": True,
            "large_mid_run_differences": False,
            "filesystems_warm_at_different_times": False,
        },
        "frame": "073f453d73db4be2541d1061a511b67429f6f7560e82f974d386932e298751bb",
    },
    "figure3": {
        "render": "2ee4467e30047c8877581af5c44905faa798b8381f2eb97973c1ae6f78c6ef00",
        "checks": {
            "small_file_single_memory_peak": True,
            "medium_file_bimodal": True,
            "large_file_disk_peak_dominates": True,
            "latencies_span_three_orders_of_magnitude": True,
        },
        "frame": None,
    },
    "figure4": {
        "render": "3411f8fa3031093316008c53dd9b06591d92e3583dac761c3bab44f306395cf6",
        "checks": {
            "enough_intervals": True,
            "disk_peak_dominates_early": True,
            "memory_peak_dominates_late": True,
            "disk_peak_fades": True,
            "bimodal_for_much_of_run": True,
        },
        "frame": "c1799e40288c199ba5a21fa47576add1dc765d960075294f56138bd9029d8911",
    },
    "scalability": {
        "render": "8dff938a137d7d502d772c6c8a1e942407d295ac9c1b8644a69526c9b37f7d26",
        "checks": {
            "aggregate_throughput_sublinear": True,
            "per_client_p95_degrades": False,
            "fresh_hdd_seek_bound_under_load": True,
            "aged_baseline_slower_than_fresh": True,
            "ssd_ftl_gc_grows_with_clients": True,
        },
        "frame": "1c4e9b517dfcf8d4564733e5feadaa4433d2b6afccbea9d72eb037ca6917c251",
    },
    "ssd-steady": {
        "render": "118347bd4df399467f288c1802cf3efc0414fe84f5d4af24f619439ed851a094",
        "checks": {
            "steady_write_amplification_above_1": True,
            "device_state_changes_throughput": True,
            "steady_gc_visible": True,
        },
        "frame": "36bdf2b3dd790ae9c230f24f098227fd6d7656ba5aa27902c28a9fd5a3253951",
    },
    "zoom": {
        "render": "5b22642b919d604de060518a62c555d80801e9ef1d22a210f9ff3129955bca4f",
        "checks": {
            "transition_found": True,
            "transition_narrower_than_coarse_step": True,
            "rsd_spikes_in_transition": True,
        },
        "frame": None,
    },
}


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(name, marks=pytest.mark.slow) if name == "zoom" else name
        for name in sorted(HARNESSES)
    ],
)
def test_harness_output_is_pinned(name, tmp_path):
    result = HARNESSES[name](tmp_path)
    assert _harness_outputs(result, tmp_path) == HARNESS_OUTPUTS[name]
