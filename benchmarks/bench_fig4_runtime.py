"""Fig 4(a)(b)(c): simulated total / I-O / CPU runtimes vs dataset size."""

from repro.experiments import fig4_runtime_vs_size


def test_fig4_runtime_vs_size(run_figure, assert_pinned):
    fig = run_figure(fig4_runtime_vs_size)
    assert_pinned(fig)
    series = fig.raw["series"]
    sizes = sorted(series["scan"])
    big = sizes[-1]
    # SCAN grows linearly with size...
    ratio = series["scan"][big]["total"] / series["scan"][sizes[0]]["total"]
    assert ratio > 0.5 * (big / sizes[0])
    # ... and is CPU-bound (hash probes dominate sequential I/O).
    assert series["scan"][big]["cpu"] > series["scan"][big]["io"]
    # The algorithm ordering holds at the largest size: ifocus < roundrobin,
    # and the resolution variant beats SCAN outright.  (Plain ROUNDROBIN only
    # crosses below SCAN around 1e9 rows - in the paper's Fig. 4 as well -
    # which the smoke sizes don't reach.)
    assert series["ifocus"][big]["total"] < series["roundrobin"][big]["total"]
    assert series["ifocusr"][big]["total"] < series["scan"][big]["total"]
    # Resolution variants are the fastest of their family, and their
    # advantage over SCAN widens with dataset size (the Fig. 4 crossover).
    assert series["ifocusr"][big]["total"] <= series["ifocus"][big]["total"]
    adv_small = series["scan"][sizes[0]]["total"] / series["ifocusr"][sizes[0]]["total"]
    adv_big = series["scan"][big]["total"] / series["ifocusr"][big]["total"]
    assert adv_big > adv_small
