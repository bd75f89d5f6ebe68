package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.core.Model.Sge
import repro.oracle.SgaOracle
import repro.physical.Mode
import repro.engine.Engine
import repro.streams.Workloads
import repro.util.BruteForce
import scala.collection.mutable
import scala.util.Random

/** Correctness of the Spark DataFrame (Catalyst) backend: for every
  * Table 1 query, on one stream at two instants, the snapshot evaluation
  * must agree with (i) the independent brute-force evaluator, (ii) the
  * DuckDB oracle running compiled SQL (recursive CTEs for PATH) over the
  * raw stream, and (iii) the incremental physical engines in all three
  * modes.
  */
class LogicalExecSpec extends SparkSpec {

  private val window = 12L
  private val slide  = 3L

  /** 70 edges over 9 vertices and labels a, b, c, spread over t = 0..35. */
  private def randomStream(seed: Int): Vector[Sge] = {
    val rnd = new Random(seed)
    Vector.tabulate(70) { i =>
      Sge(rnd.nextInt(9).toLong, rnd.nextInt(9).toLong, Seq("a", "b", "c")(rnd.nextInt(3)), i * 36L / 70)
    }.sortBy(_.ts)
  }

  private def toDf(stream: Vector[Sge]): DataFrame = {
    val s = spark
    import s.implicits._
    stream.toDF()
  }

  private def pairs(df: DataFrame): Set[(Long, Long)] =
    df.select("src", "trg").distinct().collect()
      .map(r => (r.getLong(0), r.getLong(1))).toSet

  private val binding    = Workloads.Binding("a", "b", "c")
  private val checkTimes = Seq(slide * 3 - 1, slide * 8 - 1)

  /** Query `q`'s stream, plan and Catalyst snapshot at each check instant.
    * Both of `q`'s tests read the one snapshot, so at each instant they
    * close the triangle DuckDB = Catalyst = brute force = Direct = NT = DD.
    */
  private val catalyst = mutable.Map.empty[String, (Vector[Sge], SgaExpr, Map[Long, Set[(Long, Long)]])]
  private def snapshots(q: String) = catalyst.getOrElseUpdate(q, {
    val stream = randomStream(q.hashCode & 0xff)
    val expr   = Workloads.expr(q, binding, window, slide)
    val df     = toDf(stream)
    (stream, expr, checkTimes.map(t => t -> pairs(LogicalExec.snapshot(spark, expr, df, t))).toMap)
  })

  for (q <- Workloads.queryNames) {
    test(s"$q: Catalyst snapshot equals brute force and the physical engine") {
      val (stream, expr, catalystAt) = snapshots(q)
      val runs = Seq(Mode.Direct, Mode.NegativeTuple, Mode.Differential).map(m => m -> Engine.run(expr, m, stream, slide))
      for (t <- checkTimes) {
        val brute = BruteForce.snapshot(expr, stream, t)
        assert(catalystAt(t) == brute, s"$q: Catalyst vs brute force at t=$t")
        for ((m, run) <- runs) assert(run.snapshotAt(t) == brute, s"$q: $m engine vs brute force at t=$t")
      }
    }

    test(s"$q: Catalyst snapshot equals the DuckDB oracle") {
      val (stream, expr, catalystAt) = snapshots(q)
      val s = spark
      import s.implicits._
      for (t <- checkTimes)
        Oracle.assertEquivalent(catalystAt(t).toSeq.toDF("src", "trg"), SgaOracle.snapshotSql(expr, t), "stream" -> toDf(stream))
    }
  }

  test("WSCAN snapshot applies the window formula of Def. 16") {
    val stream = Vector(Sge(1, 2, "a", 0), Sge(3, 4, "a", 5), Sge(5, 6, "b", 5))
    val w      = SgaExpr.Wscan("a", 6, 3)
    // exp(0) = 0+6 = 6; exp(5) = 3+6 = 9.
    assert(pairs(LogicalExec.snapshot(spark, w, toDf(stream), 5)) == Set((1L, 2L), (3L, 4L)))
    assert(pairs(LogicalExec.snapshot(spark, w, toDf(stream), 6)) == Set((3L, 4L)))
    assert(pairs(LogicalExec.snapshot(spark, w, toDf(stream), 9)) == Set.empty[(Long, Long)])
  }

  test("FILTER predicate applies over distinguished attributes") {
    val stream = Vector(Sge(1, 1, "a", 0), Sge(1, 2, "a", 0))
    val pred = new SgaExpr.SgtPredicate {
      def apply(src: Long, trg: Long, label: String): Boolean = src == trg
      def describe = "loop"
      def sql = "src = trg"
    }
    val e = SgaExpr.Filter(SgaExpr.Wscan("a", 10, 1), pred)
    assert(pairs(LogicalExec.snapshot(spark, e, toDf(stream), 1)) == Set((1L, 1L)))
  }

  test("UNION relabels and deduplicates") {
    val stream = Vector(Sge(1, 2, "a", 0), Sge(1, 2, "b", 0), Sge(3, 4, "b", 0))
    val e = SgaExpr.Union(List(SgaExpr.Wscan("a", 10, 1), SgaExpr.Wscan("b", 10, 1)), "u")
    val df = LogicalExec.snapshot(spark, e, toDf(stream), 1)
    assert(pairs(df) == Set((1L, 2L), (3L, 4L)))
    assert(df.select("label").distinct().collect().map(_.getString(0)).toSeq == Seq("u"))
  }

  test("PATH payload materializes a contiguous edge chain") {
    val stream = Vector(Sge(1, 2, "a", 0), Sge(2, 3, "a", 0), Sge(3, 4, "a", 0))
    val e  = SgaExpr.Path(List(SgaExpr.Wscan("a", 10, 1)), Regex.Plus(Regex.Lbl("a")), "p")
    val df = LogicalExec.snapshot(spark, e, toDf(stream), 1)
    val rows = df.collect().map { r =>
      val path = r.getSeq[org.apache.spark.sql.Row](r.fieldIndex("path"))
      ((r.getLong(0), r.getLong(1)), path.map(e => (e.getLong(0), e.getLong(1))))
    }.toMap
    assert(rows.keySet == Set((1L, 2L), (1L, 3L), (1L, 4L), (2L, 3L), (2L, 4L), (3L, 4L)))
    // Chain contiguity: every payload edge ends where the next begins.
    for (((s, g), path) <- rows) {
      assert(path.head._1 == s && path.last._2 == g)
      for (Seq((_, t1), (s2, _)) <- path.sliding(2) if path.size > 1) assert(t1 == s2)
    }
  }

  test("PATH fixpoint terminates on cyclic graphs") {
    val stream = Vector(Sge(1, 2, "a", 0), Sge(2, 1, "a", 0))
    val e = SgaExpr.Path(List(SgaExpr.Wscan("a", 10, 1)), Regex.Plus(Regex.Lbl("a")), "p")
    assert(pairs(LogicalExec.snapshot(spark, e, toDf(stream), 1)) ==
      Set((1L, 2L), (2L, 1L), (1L, 1L), (2L, 2L)))
  }

  test("composability: PATH over PATTERN output (closedness, §5.3)") {
    // d = a·b, then d+ — snapshot equals brute force.
    val stream = randomStream(55)
    val d = SgaExpr.Pattern(
      List(SgaExpr.Wscan("a", window, slide), SgaExpr.Wscan("b", window, slide)),
      List((SgaExpr.trg(0), SgaExpr.src(1))), SgaExpr.src(0), SgaExpr.trg(1), "d")
    val e = SgaExpr.Path(List(d), Regex.Plus(Regex.Lbl("d")), "p")
    val t = slide * 6 - 1
    assert(pairs(LogicalExec.snapshot(spark, e, toDf(stream), t)) ==
      BruteForce.snapshot(e, stream, t))
  }
}
