package repro.bench

import repro.SparkSpec

/** §7.3 sensitivity analysis (paper Figs. 6 & 7, reported as tables):
  * throughput/tail latency of the direct-approach engine across window
  * sizes, and SGA vs. DD across slide intervals, on the SO-sim graph.
  */
class SensitivityBench extends SparkSpec {

  private lazy val rows = BenchRunner.run(spark, "sensitivity", BenchRunner.sensitivity)

  test("sensitivity sweep completes") {
    assert(rows.size == 8 + 6)
    assert(rows.forall(_.throughputEps > 0))
  }

  test("shape: throughput decreases with window size (paper Fig. 6a)") {
    for (q <- Seq("Q1", "Q6")) {
      val sweep = rows.filter(_.query.startsWith(s"$q/W="))
      val small = sweep.find(_.query.endsWith("W=7d")).get.throughputEps
      val large = sweep.find(_.query.endsWith("W=60d")).get.throughputEps
      assert(large < small, s"$q: tput should drop from W=7d ($small) to W=60d ($large)")
    }
  }

  test("shape: direct-approach state is independent of the slide interval (Fig. 6b discussion)") {
    // The paper's tuple-oriented operators give β-independent *state*;
    // absolute throughput of our single-threaded engine also carries
    // per-slide costs (to be shown in EXPERIMENTS.md, which waits on
    // ROADMAP item 1), so the scale-stable property asserted here is the
    // state size.
    val sga = rows.filter(r => r.query.startsWith("Q1/b=") && r.system == "SGA").map(_.stateSize)
    assert(sga.nonEmpty && sga.max.toDouble / sga.min < 1.5,
      s"SGA state across β should be stable, got $sga")
  }
}
