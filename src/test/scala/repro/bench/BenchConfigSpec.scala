package repro.bench

import org.scalatest.funsuite.AnyFunSuite
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

  test("the entry point rejects an unknown table with a usage message") {
    val e = intercept[IllegalArgumentException](BenchRunner.main(Array("table3")))
    assert(e.getMessage.startsWith("usage:"))
    intercept[IllegalArgumentException](BenchRunner.main(Array.empty))
  }
}
