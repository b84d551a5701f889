"""Tests of the benchmark's own code: generation, span arithmetic, checks."""

import hashlib
import json

import pytest

import perfbench
from perfbench import checks, run, tracing, workloads, worker

perfbench.use_checkout_src()

from ionphoton import cli, config, crystal  # noqa: E402


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_configs(name):
    a, b = workloads.generate(name, 7), workloads.generate(name, 7)
    assert [(j.kind, j.config_text, j.args) for j in a.warmups + a.jobs] == \
           [(j.kind, j.config_text, j.args) for j in b.warmups + b.jobs]
    other = workloads.generate(name, 8)
    assert [j.config_text for j in a.jobs] != [j.config_text for j in other.jobs]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1])
def test_every_generated_config_is_accepted(name, seed):
    wl = workloads.generate(name, seed)
    assert len({j.name for j in wl.warmups + wl.jobs}) == len(wl.warmups + wl.jobs)
    for job in wl.warmups + wl.jobs:
        cfg = config.load_config(job.config_text)
        if job.kind == "run":
            exp = config.experiment_from(cfg)
            assert config.trials_from(cfg) == job.meta["trials"]
            assert exp.seed == job.meta["seed"]
            crystal.solve_chain(exp.traps, exp.gradient, exp.species)
        elif job.kind == "emission":
            config.cavity_from(cfg)
            deltas, kappas = config.sweep_grid(cfg)
            assert len(deltas) * len(kappas) == len(job.meta["deltas"]) * job.meta["n_kappa"]
        else:
            cases = config.crystal_cases(cfg)
            assert len(cases) == len(job.meta.get("cases", [None]))
            for case in cases:
                crystal.solve_chain(case.traps, case.gradient, case.species)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((perfbench.ROOT / "BENCHMARK.json").read_text())
    # emission_sweep runs by hand only: on a shared host its timings swing too
    # far between minutes for a regression bound (see README.md, Noise)
    assert [w["name"] for w in spec["workloads"]] == ["mc_sampling", "chain_design"]
    assert set(workloads.WORKLOADS) == {"mc_sampling", "chain_design", "emission_sweep"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER_UNITS


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ["cli.job", 0.0, 10.0, -1, 0],
        ["protocol.sample_run", 1.0, 7.0, 0, 0],
        ["protocol.chain_coupling", 2.0, 3.0, 1, 0],
        ["crystal.normal_modes", 2.25, 2.75, 2, 0],
        ["reports.write", 8.0, 9.5, 0, 0],
        ["cli.job", 20.0, 24.0, -1, 1],
        ["config.load_config", 20.5, 21.0, 5, 1],
    ]
    assert tracing.self_times(spans) == [2.5, 5.0, 0.5, 0.5, 1.5, 3.5, 0.5]
    m = tracing.layer_metrics(spans, {"protocol.trials": 1000}, n_jobs=2)
    assert m["protocol.sampler_ms"] == pytest.approx(5.0e3 / 2)
    assert m["protocol.sampler_us_per_trial"] == pytest.approx(5.0e6 / 1000)
    assert m["crystal.normal_modes.calls"] == 0.5
    assert m["cli.overhead_ms"] == pytest.approx(6.0e3 / 2)
    assert m["trace.coverage"] == pytest.approx(8.0 / 14.0)


def test_end_to_end_metrics_from_job_records():
    # [job index, out dir, ms, exit code, stderr, traced]; index -1 is a warm-up
    records = [[-1, "w", 900.0, 0, "", False]]
    records += [[i % 10, str(i), 10.0 * (i % 10 + 1), 0, "", False] for i in range(100)]
    metrics, extra = run.end_to_end({"records": records, "wall_s": 5.0, "peak_rss_mb": 40.0},
                                    [0.4, 0.5, 0.3])
    assert metrics["job_ms_p50"] == {"value": 55.0, "unit": "ms"}
    assert metrics["job_ms_p90"]["value"] == pytest.approx(99.0)
    assert metrics["jobs_per_s"]["value"] == 20.0
    assert metrics["setup_s"]["value"] == 0.4
    assert extra["job_samples"] == 100


def test_tracer_restores_functions_and_nests_spans(tmp_path):
    import ionphoton

    wl = workloads.generate("chain_design", 0)
    job = next(j for j in wl.jobs if j.kind == "run")
    path = tmp_path / "job.ini"
    path.write_text(job.config_text)
    before = crystal.normal_modes
    tracer = tracing.Tracer()
    tracer.install(ionphoton)
    try:
        ms, code, err = worker.run_job(cli.main, job, path, tmp_path / "out", tracer)
    finally:
        tracer.uninstall()
    assert crystal.normal_modes is before and code == 0, err
    names = [s[0] for s in tracer.spans]
    assert names[0] == tracing.ROOT_SPAN and "crystal.normal_modes" in names
    assert tracer.counts["protocol.trials"] == job.meta["trials"]
    assert all(s[3] < i for i, s in enumerate(tracer.spans))


def _run(tmp_path, job, name):
    cfg = tmp_path / f"{name}.ini"
    cfg.write_text(job.config_text)
    out = tmp_path / name
    ms, code, err = worker.run_job(cli.main, job, cfg, out)
    assert code == 0, err
    return out


def _rewrite(out, name, edit, fix_manifest):
    data = edit((out / name).read_text()).encode()
    (out / name).write_bytes(data)
    if fix_manifest:
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["files"][name] = {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}
        (out / "manifest.json").write_text(json.dumps(manifest))


def _change_count(text):
    doc = json.loads(text)
    key = next(iter(doc["counts"]))
    doc["counts"][key] += 1
    return json.dumps(doc)


def _change_j(text):
    lines = text.splitlines()
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) * (1 + 1e-6))
    lines[1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fix_manifest", [False, True])
def test_tampered_bundles_count_as_failed(tmp_path, fix_manifest):
    wl = workloads.generate("chain_design", 0)
    run_idx = next(i for i, j in enumerate(wl.jobs) if j.kind == "run")
    cpl_idx = next(i for i, j in enumerate(wl.jobs) if j.kind == "couplings")
    records = []
    for idx in (run_idx, cpl_idx):
        for copy in range(2):
            out = _run(tmp_path, wl.jobs[idx], f"{idx}-{copy}")
            records.append([idx, str(out), 1.0, 0, "", False])
    assert run.check_records(wl, [r[:] for r in records[::2]], seed=0) == []

    _rewrite(tmp_path / f"{run_idx}-1", "run_report.json", _change_count, fix_manifest)
    _rewrite(tmp_path / f"{cpl_idx}-1", "coupling_matrix.csv", _change_j, fix_manifest)
    # the tampered copies are checked first, so they cannot lean on a reference
    failures = run.check_records(wl, records[1::2], seed=0)
    assert len(failures) == 2, failures
    if fix_manifest:
        assert "sum of counts" in failures[0]
        assert "eigh recomputation" in failures[1]
    else:
        assert all("differs from manifest" in f for f in failures)


def test_recomputed_counts_follow_the_substream_rule(tmp_path):
    wl = workloads.generate("chain_design", 3)
    job = next(j for j in wl.jobs if j.kind == "run")
    out = _run(tmp_path, job, "run")
    checks.check_job(job, out, recompute=True)

    def reseed(text):
        doc = json.loads(text)
        doc["seed"] += 1
        return json.dumps(doc)

    # a program that ignored the seed: the report names another seed, same counts
    _rewrite(out, "run_report.json", reseed, fix_manifest=True)
    job.meta["seed"] += 1
    with pytest.raises(checks.CheckError, match="substream"):
        checks.check_job(job, out, recompute=True)
