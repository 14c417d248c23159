"""The benchmark's tracer must still find every package name it wraps."""
import sys
from pathlib import Path

import usdlab
import usdlab.cli  # the tracer wraps names in every loaded usdlab module

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    import tracer

    originals = {name: getattr(usdlab, name) for name in usdlab.__dict__
                 if callable(getattr(usdlab, name))}
    hooks = tracer.Tracer()
    tracer.install(hooks)
    try:
        assert hooks._patches  # every wrapped name was found
        assert usdlab.check_usd is not originals["check_usd"]
        # the multistart lives in its own module; its loop must still be seen
        coll = usdlab.SubspaceCollection.all_subsets(usdlab.Dictionary.exponential_band(-1, 1), 2)
        xi = usdlab.PointSet.random_uniform(16, 1, seed=0)
        usdlab.check_usd(xi, coll, 4, usdlab.RatioOptions(starts=2, max_iters=5))
        assert hooks.counts["discretization.multistart.runs"] >= 1
    finally:
        hooks.uninstall()
    assert all(getattr(usdlab, name) is fn for name, fn in originals.items())
