import json
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import EX1_TEXT, SYSB_TEXT, chain_text
from tnbpa import strings
from tnbpa import engine
from tnbpa.base import DecompositionBase, initial_base
from tnbpa.cli import main
from tnbpa.model import parse_system, serialize_system
from tnbpa.normalization import standardize
from tnbpa.oracle import GenParams, random_system


def run(argv, expect=None):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    if expect is not None:
        assert code == expect, f"exit {code}, stderr: {err.getvalue()}"
    return code, out.getvalue(), err.getvalue()


@pytest.fixture()
def ex1_file(tmp_path) -> str:
    path = tmp_path / "ex1.bpa"
    path.write_text(EX1_TEXT)
    return str(path)


@pytest.fixture()
def sysb_file(tmp_path) -> str:
    path = tmp_path / "sys-b.bpa"
    path.write_text(SYSB_TEXT)
    return str(path)


def test_check_exit_codes(ex1_file):
    run(["check", ex1_file, "--left", "X", "--right", "Y"], expect=1)
    run(["check", ex1_file, "--left", "X'", "--right", "Y'"], expect=0)
    run(["check", ex1_file, "--left", "X", "--right", "X"], expect=0)


def test_check_text_output(ex1_file):
    _, out, _ = run(["check", ex1_file, "--left", "X", "--right", "Y"], expect=1)
    assert out.splitlines()[0] == "verdict: not-bisimilar"


def test_check_json_output(ex1_file):
    _, out, _ = run(["check", ex1_file, "--left", "X'", "--right", "Y'", "--json"], expect=0)
    payload = json.loads(out)
    assert payload["verdict"] == "bisimilar"
    assert payload["dcmp_left"] == payload["dcmp_right"] == ["X'"]
    assert payload["base"]["primes"] == ["X'", "X", "Y"]
    assert payload["base"]["equations"] == {"Y'": ["X'"]}


def test_check_verify(ex1_file):
    _, out, _ = run(
        ["check", ex1_file, "--left", "X", "--right", "Y", "--verify", "--json"],
        expect=1,
    )
    payload = json.loads(out)
    assert payload["verification"]["oracle"] == "confirmed"
    assert payload["verification"]["generator_failures"] == 0
    assert payload["verification"]["distinction"]["nodes"]

    # Both oracle outcomes in the text form.
    _, out, _ = run(["check", ex1_file, "--left", "X", "--right", "Y", "--verify"], expect=1)
    assert out.splitlines()[-1] == "verification: generator checks ok; oracle confirmed"
    argv = ["check", ex1_file, "--left", "X'", "--right", "Y'", "--verify", "--k", "8"]
    _, out, _ = run(argv, expect=0)
    assert out.splitlines()[-1] == (
        "verification: generator checks ok; oracle no distinction found up to k=8"
    )


def test_check_verify_exits_three_when_the_oracle_refutes_the_verdict(ex1_file, monkeypatch):
    # An engine that calls every pair bisimilar is refuted on X vs Y: the
    # certificate goes to standard error, then the internal error.
    def always_bisimilar(std, p1, p2, *, base):
        return engine.Verdict(engine.VerdictKind.BISIMILAR, base=base)

    monkeypatch.setattr(engine, "check_equivalence", always_bisimilar)
    argv = ["check", ex1_file, "--left", "X", "--right", "Y", "--verify", "--k", "8"]
    code, out, err = run(argv)
    assert code == 3 and out == ""
    certificate, message = err.split("internal error: ")
    assert json.loads(certificate)["nodes"]
    assert message == "oracle refutes the engine's bisimilar verdict for 'X' vs 'Y'\n"


def test_check_verify_exits_three_on_a_failed_generator_check(ex1_file, monkeypatch):
    # The norm-equality base relates X and Y, which the oracle tells apart,
    # so its generator checks fail; the pair X, X is never refuted.
    monkeypatch.setattr(engine, "compute_bisimilarity_base", lambda std: (initial_base(std), []))
    argv = ["check", ex1_file, "--left", "X", "--right", "X", "--verify", "--k", "8"]
    code, out, err = run(argv)
    assert code == 3 and out == ""
    assert err == "internal error: 27 generator check(s) failed on the final base\n"


def test_check_bad_process(ex1_file):
    code, _, err = run(["check", ex1_file, "--left", "Q", "--right", "X"])
    assert code == 2 and "unknown constant" in err


def test_base_output(ex1_file, sysb_file):
    _, out, _ = run(["base", ex1_file], expect=0)
    assert out.splitlines() == ["prime X'", "Y' = X'", "prime X", "prime Y"]
    _, out, _ = run(["base", sysb_file], expect=0)
    assert out.splitlines() == ["prime B", "prime Y", "A = B", "X = B Y"]


def test_base_iterations_and_trace(ex1_file, tmp_path):
    trace_path = tmp_path / "trace.json"
    _, out, _ = run(["base", ex1_file, "--iterations", "--trace", str(trace_path)], expect=0)
    assert "== initial base ==" in out
    assert "== after iteration 1 ==" in out
    trace = json.loads(trace_path.read_text())
    assert [rec["iteration"] for rec in trace] == [1, 2]
    assert trace[0]["new_primes"] == ["X", "Y"]


def test_base_single_constant(tmp_path):
    f = tmp_path / "one.bpa"
    f.write_text("constants: K\nK -a-> eps\n")
    _, out, _ = run(["base", str(f)], expect=0)
    assert out.splitlines() == ["prime K"]


def _exhaustive_engine(monkeypatch):
    # `base` has no mode flag; route its engine call through exhaustive mode.
    compute = engine.compute_bisimilarity_base
    monkeypatch.setattr(
        engine, "compute_bisimilarity_base", lambda std: compute(std, engine.CandidateMode.EXHAUSTIVE)
    )


def test_base_exhaustive_mode(sysb_file, monkeypatch):
    _, pruned, _ = run(["base", sysb_file], expect=0)
    _exhaustive_engine(monkeypatch)
    _, exhaustive, _ = run(["base", sysb_file], expect=0)
    assert pruned == exhaustive


def test_base_exhaustive_mode_on_a_generated_system(tmp_path, monkeypatch):
    # 64 constants with norms up to 8: enumerating every prime string of a
    # constant's norm would test 406,725 candidates for C15 alone.
    target = tmp_path / "n64.bpa"
    gen = ["gen", "--constants", "64", "--norm-cap", "8", "--seed", "34", "-o", str(target)]
    run(gen, expect=0)
    _, pruned, _ = run(["base", str(target), "--iterations"], expect=0)
    _exhaustive_engine(monkeypatch)
    _, exhaustive, _ = run(["base", str(target), "--iterations"], expect=0)
    assert pruned == exhaustive


def test_mode_flag_is_gone(sysb_file):
    # Candidate modes are compared through the API (`test_mode_agreement`).
    for argv in (["base", sysb_file, "--mode", "exhaustive"],
                 ["check", sysb_file, "--left", "X", "--right", "Y", "--mode", "pruned"]):
        with pytest.raises(SystemExit) as exc, redirect_stderr(io.StringIO()) as err:
            main(argv)
        assert exc.value.code == 2 and "--mode" in err.getvalue()


def test_norms_output(ex1_file, sysb_file, tmp_path):
    _, out, _ = run(["norms", ex1_file], expect=0)
    assert out.splitlines() == ["X 1", "X' 1", "Y 1", "Y' 1"]
    _, out, _ = run(["norms", sysb_file, "--json"], expect=0)
    assert json.loads(out) == {"A": 1, "B": 1, "X": 2, "Y": 1}

    unnormed = tmp_path / "u.bpa"
    unnormed.write_text("constants: X\nX -a-> X\n")
    code, out, err = run(["norms", str(unnormed)])
    assert code == 0
    assert out.splitlines() == ["X inf"]
    assert "unnormed" in err


def test_standardize_output_reparses(ex1_file):
    _, out, _ = run(["standardize", ex1_file], expect=0)
    lines = out.splitlines()
    assert lines[0] == "constants: X' Y' X Y"
    assert "# standard order" in out

    # idempotence: standardizing the output changes nothing
    from tnbpa.model import parse_system, serialize_system
    from tnbpa.normalization import standardize

    again = standardize(parse_system(out))
    assert serialize_system(again.sys) == "\n".join(
        line for line in lines if not line.startswith("#")
    ) + "\n"


def test_standardize_merges_loops(tmp_path):
    f = tmp_path / "loop.bpa"
    f.write_text("constants: X Y\nX -tau-> Y\nY -tau-> X\nX -a-> eps\nY -a-> eps\n")
    _, out, _ = run(["standardize", str(f)], expect=0)
    assert out.splitlines()[0] == "constants: X"
    assert "<- X Y" in out


def test_gen_deterministic_and_valid(tmp_path):
    args = ["gen", "--constants", "6", "--seed", "7"]
    _, out1, _ = run(args, expect=0)
    _, out2, _ = run(args, expect=0)
    assert out1 == out2

    target = tmp_path / "g.bpa"
    run(["gen", "--constants", "6", "--seed", "7", "-o", str(target)], expect=0)
    assert target.read_text() == out1

    code, _, _ = run(["norms", str(target)])
    assert code == 0

    # The command line keeps no generator defaults of its own.
    _, out, _ = run(["gen", "--seed", "7"], expect=0)
    assert out == serialize_system(random_system(GenParams(seed=7)))


@pytest.mark.parametrize("command", ["gen", "base"])
def test_unwritable_output_path_is_an_input_error(command, sysb_file, tmp_path):
    target = str(tmp_path / "missing" / "out")
    if command == "gen":
        argv = ["gen", "--constants", "3", "-o", target]
    else:
        argv = ["base", sysb_file, "--trace", target]
    code, _, err = run(argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_oracle_command(ex1_file, sysb_file):
    code, out, _ = run(["oracle", ex1_file, "X", "Y", "--k", "8", "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["result"] == "distinction"
    assert payload["strategy"]["nodes"]

    code, out, _ = run(["oracle", sysb_file, "A", "B", "--k", "8"])
    assert code == 0
    assert "no distinction found up to k=8" in out

    code, out, _ = run(["oracle", ex1_file, "X", "Y", "--k", "8"])
    assert code == 1
    assert out == "distinction found (strategy tree of 2 nodes); attacker opens with left -a-> eps\n"


def test_oracle_guard_exits_three(ex1_file, monkeypatch):
    from tnbpa import oracle

    monkeypatch.setattr(oracle, "NODE_LIMIT", 0)
    code, _, err = run(["oracle", ex1_file, "X", "Y", "--k", "8"])
    assert code == 3 and err.startswith("resource guard: strategy extraction exceeded")


def test_deep_recursion_exits_three(tmp_path):
    # The norm-doubling chain: X11 and X10 differ in norm by 1024, and the
    # recursive norm descent that refutes them runs out of stack.
    f = tmp_path / "doubling.bpa"
    rules = ["X0 -a-> eps"]
    for i in range(1, 14):
        rules += [f"X{i} -a-> X{i - 1} X{i - 1}", f"X{i} -b-> X{i - 1} X{i - 1}"]
    f.write_text("constants: " + " ".join(f"X{i}" for i in range(14)) + "\n" + "\n".join(rules) + "\n")
    code, _, err = run(["oracle", str(f), "X11", "X10", "--k", "4"])
    assert code == 3 and err.startswith("resource guard: maximum recursion depth exceeded")


def _limited_run(argv: list[str], address_space: int) -> subprocess.CompletedProcess:
    """`python -m tnbpa.cli argv` in a child whose address space is capped."""
    import resource

    root = Path(__file__).resolve().parent.parent

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "tnbpa.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        preexec_fn=cap,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="RLIMIT_AS is enforced on Linux")
def test_huge_word_exits_three_before_allocating(tmp_path):
    # On the n = 40 clone chain, dcmp(Y39) is Y0^(2^39): the engine keeps it
    # as one run, and printing it would expand it.  The guard trips before
    # any allocation, well inside a 1.5 GB address space.
    path = tmp_path / "clone40.bpa"
    path.write_text(chain_text("clone", 40))
    done = _limited_run(["check", str(path), "--left", "Y39", "--right", "Y38 Y38"], 1_500_000 * 1024)
    assert done.returncode == 3, done.stderr
    assert done.stderr.startswith("resource guard: a word of 549755813888 ids")
    assert "Traceback" not in done.stderr


def test_doubling_chain_at_n40_decides_and_prints(tmp_path):
    path = tmp_path / "doubling40.bpa"
    path.write_text(chain_text("doubling", 40))
    code, out, _ = run(["check", str(path), "--left", "X3", "--right", "X2"], expect=1)
    assert out == "verdict: not-bisimilar\ndcmp(left)  = X3\ndcmp(right) = X2\n"


def test_word_guard_is_read_at_call_time(tmp_path, monkeypatch):
    # dcmp(Y9) on the n = 10 clone chain is 512 ids wide.
    path = tmp_path / "clone10.bpa"
    path.write_text(chain_text("clone", 10))
    argv = ["check", str(path), "--left", "Y9", "--right", "Y8 Y8"]
    run(argv, expect=0)
    monkeypatch.setattr(strings, "EXPAND_LIMIT", 511)
    code, _, err = run(argv)
    assert code == 3 and err == "resource guard: a word of 512 ids is wider than the limit of 511\n"


def test_memory_error_exits_three(ex1_file, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(engine, "compute_bisimilarity_base", exhausted)
    for argv in (["check", ex1_file, "--left", "X", "--right", "Y"], ["base", ex1_file]):
        code, _, err = run(argv)
        assert code == 3 and err == "resource guard: out of memory\n"


@pytest.mark.parametrize(
    "argv, field",
    [
        (["gen", "--constants", "0"], "constants"),
        (["gen", "--alphabet", "0"], "alphabet"),
        (["gen", "--norm-cap", "0"], "norm_cap"),
        (["gen", "--max-rhs-len", "-1"], "max_rhs_len"),
        # A silent extra rule needs a non-empty right-hand side.
        (["gen", "--max-rhs-len", "0"], "max_rhs_len"),
        (["gen", "--extra-rules", "-1"], "extra_rules"),
        (["gen", "--silent-prob", "1.5"], "silent_prob"),
        (["gen", "--composite-prob", "-0.1"], "composite_prob"),
        (["fuzz", "--norm-cap", "0"], "norm_cap"),
    ],
)
def test_bad_generator_flags_are_input_errors(argv, field):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {field} must ")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["check", "{ex1}", "--left", "X", "--right", "Y", "--verify", "--k", "0"], "--k"),
        (["oracle", "{ex1}", "X", "Y", "--k", "-1"], "--k"),
        (["fuzz", "--k", "-1"], "--k"),
        (["fuzz", "--trials", "-3"], "--trials"),
        (["fuzz", "--pairs", "-1"], "--pairs"),
        (["fuzz", "--jobs", "0"], "--jobs"),
    ],
)
def test_numeric_flags_below_range_are_input_errors(argv, flag, ex1_file):
    code, out, err = run([a.format(ex1=ex1_file) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag} must be at least ")


def test_fuzz_command():
    code, out, _ = run([
        "fuzz", "--trials", "2", "--pairs", "4", "--constants", "5", "--seed", "31",
    ])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # two trials plus the summary
    summary = json.loads(lines[-1])["summary"]
    assert summary["refutations"] == 0 and summary["ok"]


def test_fuzz_jobs_flag_matches_serial():
    argv = ["fuzz", "--trials", "2", "--pairs", "3", "--constants", "5", "--seed", "77"]
    _, serial, _ = run(argv, expect=0)
    _, parallel, _ = run(argv + ["--jobs", "2"], expect=0)
    assert serial == parallel


def test_input_errors(tmp_path, ex1_file):
    bad = tmp_path / "bad.bpa"
    bad.write_text("constants: X\nX -a-> Q\n")
    code, _, err = run(["check", str(bad), "--left", "X", "--right", "X"])
    assert code == 2 and "undeclared" in err

    nontn = tmp_path / "nontn.bpa"
    nontn.write_text("constants: X\nX -a-> eps\nX -tau-> eps\n")
    code, _, err = run(["base", str(nontn)])
    assert code == 2 and "totally normed" in err

    code, _, err = run(["check", str(tmp_path / "missing.bpa"), "--left", "X", "--right", "X"])
    assert code == 2

    # A file that is not UTF-8 cannot be read either: one error line.
    latin = tmp_path / "latin.bpa"
    latin.write_bytes(b"constants: X\nX -a-> eps \xff\n")
    code, _, err = run(["base", str(latin)])
    assert code == 2 and err.startswith(f"error: cannot read {latin}: ") and err.count("\n") == 1

    # check and oracle parse processes alike: eps must stand alone.
    for argv in (["check", ex1_file, "--left", "X eps", "--right", "X"],
                 ["oracle", ex1_file, "X eps", "X"]):
        code, _, err = run(argv)
        assert code == 2 and "'eps' must stand alone in a process" in err


def test_output_determinism(ex1_file):
    argv = ["check", ex1_file, "--left", "X", "--right", "Y", "--json"]
    _, out1, _ = run(argv, expect=1)
    _, out2, _ = run(argv, expect=1)
    assert out1 == out2


def test_check_resolves_contracted_names(tmp_path):
    # X and Y sit on a silent norm-preserving loop and get merged; the CLI
    # must still accept both original names.
    f = tmp_path / "loop.bpa"
    f.write_text(
        "constants: X Y Z\nX -tau-> Y\nY -tau-> X\nX -a-> eps\nY -a-> eps\nZ -b-> X\n"
    )
    run(["check", str(f), "--left", "Y", "--right", "X"], expect=0)
    run(["check", str(f), "--left", "Z", "--right", "Y X"], expect=1)


def test_check_trace_flag(ex1_file, tmp_path):
    trace_path = tmp_path / "check-trace.json"
    run(
        ["check", ex1_file, "--left", "X", "--right", "Y", "--trace", str(trace_path)],
        expect=1,
    )
    trace = json.loads(trace_path.read_text())
    assert trace and trace[0]["iteration"] == 1


def test_internal_failures_exit_three(ex1_file, monkeypatch):
    from tnbpa import cli as cli_module

    def boom(*args, **kwargs):
        raise AssertionError("synthetic internal failure")

    monkeypatch.setattr(cli_module.engine, "compute_bisimilarity_base", boom)
    code, _, err = run(["base", ex1_file])
    assert code == 3 and "internal error" in err


def test_invalid_base_built_by_the_engine_exits_three(tmp_path, monkeypatch):
    # An engine that accepts B = A, which changes the norm, builds a base
    # that fails validation.  That is an engine bug, not bad input: check and
    # base exit 3 with the validation message, and a fuzz trial records it.
    from tnbpa.oracle import GenParams, differential_trial

    path = tmp_path / "ab.bpa"
    path.write_text("constants: A B\nA -a-> eps\nB -a-> A\n")
    generate = engine.candidates_for

    def norm_changing(partial, i):
        if partial.norms[i] != partial.norms[0]:
            return [((0,), engine.TestResult(True, 7))]
        return generate(partial, i)

    monkeypatch.setattr(engine, "candidates_for", norm_changing)
    for argv in (["check", str(path), "--left", "A", "--right", "B"], ["base", str(path)]):
        code, _, err = run(argv)
        assert code == 3, err
        assert err.startswith("internal error:") and "not norm-preserving" in err
    report = differential_trial(GenParams(constants=6, seed=3), k_max=4, pairs_per_trial=2)
    assert "not norm-preserving" in report.engine_error
    code, out, _ = run(["fuzz", "--trials", "2", "--pairs", "2", "--constants", "5"])
    assert code == 1 and "not norm-preserving" in out


# A, B of norm 1 and C ~ A A: the initial base has the primes {A} and the
# final base {A, B}, with C = A A in both.
ABC_TEXT = "constants: A B C\nA -a-> eps\nB -b-> eps\nC -a-> A\n"


def test_equations_changed_at_the_fixpoint_exit_three(tmp_path, monkeypatch):
    # A pass that keeps the primes but moves an equation: C = B A.
    real = engine.refine

    def moving(std, base, fixed, mode):
        refined, record = real(std, base, fixed, mode)
        if refined.primes == base.primes:
            equations = {i: rhs.word for i, rhs in refined.equations.items()}
            equations[2] = (1, 0)
            refined = DecompositionBase(std.n, refined.primes, equations, std.norms)
        return refined, record

    path = tmp_path / "abc.bpa"
    path.write_text(ABC_TEXT)
    monkeypatch.setattr(engine, "refine", moving)
    code, out, err = run(["base", str(path)])
    assert (code, out) == (3, "")
    assert err == "internal error: prime set stabilized but equations changed\n"


def test_no_fixpoint_within_n_passes_exits_three(tmp_path, monkeypatch):
    # Passes whose prime sets alternate between {A} and {A, B}.
    std = standardize(parse_system(ABC_TEXT))
    initial, (final, _) = initial_base(std), engine.compute_bisimilarity_base(std)

    def alternating(std, base, fixed, mode):
        return (final if base == initial else initial), engine.IterationRecord([])

    path = tmp_path / "abc.bpa"
    path.write_text(ABC_TEXT)
    monkeypatch.setattr(engine, "refine", alternating)
    code, out, err = run(["base", str(path)])
    assert (code, out) == (3, "")
    assert err == "internal error: no fixpoint within 3 refinement passes\n"


@pytest.mark.parametrize("text, contraction, message", [
    pytest.param(
        "constants: A B\nA -tau-> B\nB -tau-> A\nA -a-> eps\n",
        lambda sys, norms: (list(range(sys.n)), [0] * sys.n),
        "decreasing rule of A escapes its index prefix",
        id="silent-cycle-kept",
    ),
    pytest.param(
        "constants: A B\nA -a-> eps\nB -a-> A\n",
        lambda sys, norms: ([0] * sys.n, [0] * sys.n),
        "contraction changed the norm of B",
        id="norm-2-merged-into-norm-1",
    ),
])
def test_standardize_checks_exit_three(tmp_path, monkeypatch, text, contraction, message):
    # A contraction that keeps a silent cycle, or that merges constants of
    # different norms.
    from tnbpa import normalization

    path = tmp_path / "sys.bpa"
    path.write_text(text)
    monkeypatch.setattr(normalization, "contract_loops", contraction)
    code, out, err = run(["base", str(path)])
    assert (code, out) == (3, "")
    assert err == f"internal error: {message}\n"


def test_a_refuted_pair_without_a_certificate_exits_three(monkeypatch):
    # An extraction that comes back empty for a pair the levels refute.
    from tnbpa import oracle

    monkeypatch.setattr(oracle.GameContext, "find_distinction", lambda self, p, q, k_max: None)
    code, out, err = run(["fuzz", "--trials", "1", "--pairs", "5", "--constants", "5"])
    assert (code, out) == (3, "")
    assert err == "internal error: refuted pair (1, 2, 1) vs (4, 1) yielded no distinction\n"


def test_repo_sample_files():
    root = Path(__file__).resolve().parent.parent
    ex1 = root / "systems" / "ex1.bpa"
    sysb = root / "systems" / "sys-b.bpa"
    run(["check", str(ex1), "--left", "X", "--right", "Y"], expect=1)
    run(["check", str(sysb), "--left", "A", "--right", "B"], expect=0)


SAMPLES = [
    (Path(__file__).resolve().parent.parent / "systems" / name).read_text().splitlines()
    for name in ("ex1.bpa", "sys-b.bpa")
]


@st.composite
def mutated_sample(draw):
    """A sample system with one to three tokens or lines dropped, duplicated,
    swapped with a neighbour, or replaced by an undeclared name."""
    lines = [line.split() for line in draw(st.sampled_from(SAMPLES))]
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.integers(0, len(lines) - 1))
        # Either the lines themselves or the tokens of one line.
        seq = draw(st.sampled_from([lines, lines[row]]))
        if not seq:
            continue
        at = draw(st.integers(0, len(seq) - 1))
        op = draw(st.sampled_from(["drop", "duplicate", "swap", "undeclared"]))
        if op == "drop":
            del seq[at]
        elif op == "duplicate":
            seq.insert(at, list(seq[at]) if seq is lines else seq[at])
        elif op == "swap" and at + 1 < len(seq):
            seq[at], seq[at + 1] = seq[at + 1], seq[at]
        elif op == "undeclared":
            seq[at] = ["Q", "-a->", "eps"] if seq is lines else "Q"
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    text=mutated_sample(),
    left=st.sampled_from(["X", "Y", "A", "X Y", "eps", "Q"]),
    right=st.sampled_from(["X'", "B", "Y X", "eps"]),
)
def test_mutated_samples_keep_the_exit_code_contract(tmp_path_factory, text, left, right):
    # In process, so no example pays for a subprocess: every command returns
    # 0, 1 or 2 on a broken input, and no exception escapes `main`.
    path = tmp_path_factory.getbasetemp() / "mutated.bpa"
    path.write_text(text)
    for argv in (
        ["check", str(path), "--left", left, "--right", right],
        ["base", str(path)],
        ["norms", str(path)],
        ["standardize", str(path)],
    ):
        code, _, err = run(argv)
        assert code in (0, 1, 2), (argv, text, err)


@pytest.mark.parametrize(
    "argv, stdout",
    [
        (["base", "systems/sys-b.bpa", "--json"], None),
        (["check", "systems/sys-b.bpa", "--left", "A", "--right", "B"], None),
        (["base", "systems/sys-b.bpa"], "/dev/full"),
    ],
    ids=["argv0", "argv1", "dev-full"],
)
def test_closed_stdout_exits_three_without_traceback(argv, stdout):
    # stdout None: a pipe closed by the reader; otherwise a device that
    # fails every write.
    if stdout is not None and not os.path.exists(stdout):
        pytest.skip(f"no {stdout} here")
    root = Path(__file__).resolve().parent.parent
    device = open(stdout, "wb") if stdout else subprocess.PIPE
    proc = subprocess.Popen(
        [sys.executable, "-m", "tnbpa.cli", *argv],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        stdout=device,
        stderr=subprocess.PIPE,
    )
    # Close the reading end of the pipe, or this process's copy of the device.
    (proc.stdout or device).close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 3, err
    assert err.startswith("error: ")
    assert "Traceback" not in err and "Exception ignored" not in err
