"""A reduced fee sweep showing how query counts respond to the fee level.

The baselines are insensitive to the fee. The coupling-linearization
route is cheapest at the zero-sum limit and several times dearer at any
positive fee, where its count stays about level. This runs a small
version of the benchmark grid (full protocol: nzs bench).

Run: python demos/benchmark_sweep.py
"""

from nzs.cli import bench_rows, summarize

seeds = [0, 111]
rhos = [0.0, 0.0006, 0.0012, 0.0018]

print("sweeping 2 seeds x 4 fee levels x 3 methods at n = m = 400 ...")
rows = bench_rows(n=400, m=400, nnz=4000, seeds=seeds, rhos=rhos,
                  methods=("icl", "ogda", "eg"), mu=1e-4, nu=1.0, eps=1e-7)
summary = summarize(rows)

print(f"\n{'method':>6} {'fee':>8} {'queries':>12} {'2-sigma':>9}")
for cell in summary:
    print(f"{cell['method']:>6} {cell['rho']:>8.2%} "
          f"{cell['mean']:>12.0f} {cell['two_sigma']:>9.0f}")

print("\nnotes:")
print(" - eg and ogda counts barely move across fees")
print(" - their ratio stays near sqrt(2), the stepsize ratio")
print(" - the linearization route is cheapest at the zero-sum limit, where")
print("   one primal-dual pass solves the game; a positive fee costs it")
print("   several times more, about level from one fee to the next")

assert not any(r.get("error") for r in rows), "a cell failed"
mean = {(cell["method"], cell["rho"]): cell["mean"] for cell in summary}
for rho in rhos:
    assert 1.3 <= mean["eg", rho] / mean["ogda", rho] <= 1.5
for method in ("eg", "ogda"):
    counts = [mean[method, rho] for rho in rhos]
    assert (max(counts) - min(counts)) / (sum(counts) / len(counts)) < 0.01
assert mean["icl", 0.0] < mean["ogda", 0.0] / 2
