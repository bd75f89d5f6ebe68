package repro.bench

import repro.SparkSpec

/** §7.4 plan-space micro-benchmark (paper Figs. 8 & 9, reported here as
  * tables): the equivalent plans that `Rewriter.plans` derives through
  * the SGA transformation rules, all on the direct-approach engine — for
  * Q4 the canonical loop-caching plan `P_{d+}(⋈(a,b,c))` and P1–P3, for
  * Q2 and Q3 the canonical plan and its star expansion.
  */
class PlanSpaceBench extends SparkSpec {

  private lazy val rows = BenchRunner.run(spark, "planspace", BenchRunner.planSpace)

  test("all Q4 plans and Q2/Q3 alternatives complete") {
    assert(rows.count(_.query.startsWith("Q4/")) == 8) // 4 plans × 2 graphs
    assert(rows.count(_.query.startsWith("Q2")) == 2 && rows.count(_.query.startsWith("Q3")) == 2)
    assert(rows.forall(_.throughputEps > 0))
  }

  test("equivalent plans produce comparable result volumes") {
    for (g <- Seq("SO", "LDBC")) {
      val q4 = rows.filter(r => r.graph == g && r.query.startsWith("Q4/"))
      val counts = q4.map(_.results.toDouble)
      assert(counts.max / counts.min.max(1.0) < 20.0,
        s"$g Q4 plan results diverge: ${q4.map(r => r.query -> r.results)}")
    }
  }

  test("shape: the plan space spreads performance materially (§7.4)") {
    // The paper reports up to 60% spread between equivalent Q4 plans; we
    // only require that the spread is visible (>15%) on some graph.
    val spread = Seq("SO", "LDBC").map { g =>
      val tputs = rows.filter(r => r.graph == g && r.query.startsWith("Q4/")).map(_.throughputEps)
      tputs.max / tputs.min
    }
    assert(spread.exists(_ > 1.15), s"plan-space spread invisible: $spread")
  }
}
