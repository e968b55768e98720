import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from sccdso.workload import (
    Application,
    AppProfile,
    WorkloadProfile,
    apps_from_jobs,
    generate_workload,
    partition,
    profile_from_dict,
    tasks_for,
    workload_from_apps,
)


def test_partition_100_over_64():
    blocks = partition(Application(id="a", input_mb=100, block_size_mb=64))
    assert [b.size_mb for b in blocks] == [64, 36]


def test_partition_exact_fit():
    blocks = partition(Application(id="a", input_mb=64, block_size_mb=64))
    assert [b.size_mb for b in blocks] == [64]


def test_partition_26_blocks():
    blocks = partition(Application(id="a", input_mb=1664, block_size_mb=64))
    assert len(blocks) == 26


@settings(max_examples=1000, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=2e4),
    st.floats(min_value=8.0, max_value=512.0),
)
def test_partition_properties(input_mb, block_mb):
    app = Application(id="a", input_mb=input_mb, block_size_mb=block_mb)
    blocks = partition(app)
    assert len(blocks) == math.ceil(input_mb / block_mb)
    assert sum(b.size_mb for b in blocks) == pytest.approx(input_mb, rel=1e-12)
    for b in blocks[:-1]:
        assert b.size_mb == block_mb
    assert 0 < blocks[-1].size_mb <= block_mb


def test_one_task_per_block():
    app = Application(id="a", input_mb=200, block_size_mb=64)
    blocks = partition(app)
    tasks = tasks_for(app, blocks)
    assert len(tasks) == len(blocks)
    assert [t.block_id for t in tasks] == [b.id for b in blocks]
    for t, b in zip(tasks, blocks):
        assert t.compute_gcycles == pytest.approx(b.size_mb * app.gcycles_per_mb)


def test_five_small_apps():
    profile = WorkloadProfile(
        apps=(AppProfile(count=5, input_mb=20.0, block_size_mb=64),)
    )
    w = generate_workload(seed=1, profile=profile)
    assert len(w.apps) == 5
    assert len(w.blocks) == 5
    assert len(w.tasks) == 5


def test_generation_is_deterministic():
    profile = WorkloadProfile(
        apps=(
            AppProfile(
                count=3,
                input_mb={"uniform": [50, 500]},
                demand={"uniform": [0.2, 0.9]},
            ),
        )
    )
    a = generate_workload(seed=7, profile=profile)
    b = generate_workload(seed=7, profile=profile)
    assert a.apps == b.apps
    assert a.tasks == b.tasks
    c = generate_workload(seed=8, profile=profile)
    assert c.apps != a.apps


def test_sweep_profile_shapes_harness_cells():
    sizes = [20, 40, 60, 80, 100]
    workloads = [
        generate_workload(
            seed=s,
            profile=WorkloadProfile(apps=(AppProfile(count=1, input_mb=size),)),
        )
        for s, size in enumerate(sizes)
    ]
    assert all(len(w.apps) == 1 for w in workloads)
    assert [w.apps[0].input_mb for w in workloads] == sizes


def test_empty_profile_rejected():
    with pytest.raises(ValueError):
        WorkloadProfile(apps=()).validate()


def test_profile_from_dict_and_arrivals():
    profile = profile_from_dict(
        {
            "apps": [{"count": 2, "input_mb": 128, "replication_factor": 2}],
            "arrival_rate_per_s": 4.0,
            "network_load": 0.3,
        }
    )
    w = generate_workload(seed=3, profile=profile)
    assert w.network_load == 0.3
    times = [w.arrivals[t.id] for t in w.tasks]
    assert all(t > 0 for t in times)
    assert times == sorted(times)


def test_profile_file_roundtrip(tmp_path):
    path = tmp_path / "profile.json"
    path.write_text(
        '{"apps": [{"count": 2, "input_mb": {"uniform": [64, 256]},'
        ' "replication_factor": 2}], "network_load": 0.2}'
    )
    profile = profile_from_dict(json.loads(path.read_text()))
    w = generate_workload(seed=5, profile=profile)
    assert len(w.apps) == 2
    assert all(a.replication_factor == 2 for a in w.apps)
    assert w.network_load == 0.2


def test_job_profile_ingestion():
    apps = apps_from_jobs(
        {"jobs": [{"input_mb": 100, "block_size_mb": 64, "replication": 2, "demand": 0.7}]}
    )
    assert len(apps) == 1
    assert apps[0].replication_factor == 2
    assert apps[0].demand == 0.7
    w = workload_from_apps(apps)
    assert len(w.blocks) == 2


def test_invalid_application_fields():
    with pytest.raises(ValueError):
        Application(id="a", input_mb=0).validate()
    with pytest.raises(ValueError):
        Application(id="a", input_mb=10, replication_factor=5).validate()
