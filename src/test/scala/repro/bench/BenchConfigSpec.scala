package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Rewriter
import repro.physical.PhysicalExec
import repro.streams.Workloads

/** The three paper sweeps as config lists, checked without Spark: the
  * row counts the `bench/` suites assert, the `(graph, query, system)`
  * keys they look rows up by, and a physical plan for every config.
  */
class BenchConfigSpec extends AnyFunSuite {

  private val tables = Seq(
    ("table2", BenchRunner.table2(Workloads.queryNames), 32),
    ("planspace", BenchRunner.planSpace, 12),
    ("sensitivity", BenchRunner.sensitivity, 14))

  for ((name, configs, size) <- tables) {
    test(s"$name: $size configs with unique (graph, query, system) keys") {
      assert(configs.size == size)
      val keys = configs.map(c => (c.graph, c.query, c.system))
      assert(keys.distinct == keys, s"duplicate keys: ${keys.diff(keys.distinct)}")
    }

    test(s"$name: every config builds a physical plan in its mode") {
      for (c <- configs) withClue(s"$c: ")(PhysicalExec.build(c.expr, c.mode))
    }
  }

  test("planspace: the 12 plan-space rows are the plans Rewriter derives from each query") {
    val keys = BenchRunner.planSpace.map(c => (c.graph, c.query))
    val want = (for (g <- Seq("SO", "LDBC"); p <- Seq("SGA", "P1", "P2", "P3")) yield (g, s"Q4/$p")) ++
               (for (q <- Seq("Q2", "Q3"); p <- Seq("SGA", "alt")) yield ("SO", s"$q/$p"))
    assert(keys.sorted == want.sorted)
    for (c <- BenchRunner.planSpace) {
      val q    = c.query.takeWhile(_ != '/')
      val bind = if (c.graph == "SO") Workloads.soBinding(q) else Workloads.ldbcBinding(q)
      assert(Rewriter.plans(Workloads.expr(q, bind, 30 * BenchRunner.Day, c.slide)).contains(c.expr), s"$c")
    }
  }

  test("the entry point rejects an unknown table with a usage message") {
    val e = intercept[IllegalArgumentException](BenchRunner.main(Array("table3")))
    assert(e.getMessage.startsWith("usage:"))
    intercept[IllegalArgumentException](BenchRunner.main(Array.empty))
  }
}
