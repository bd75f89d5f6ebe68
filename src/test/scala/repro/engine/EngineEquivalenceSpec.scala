package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Rewriter, SgaExpr}
import repro.core.Model.Sge
import repro.physical.Mode
import repro.streams.Workloads
import repro.util.BruteForce
import scala.util.Random

/** The central correctness harness for the physical layer: for every
  * Table 1 query, on randomized small streams, the persistent engine in
  * each of its three modes — Direct (SGA), negative-tuple (NT) and
  * differential (the DD baseline) — must agree with the independent
  * brute-force snapshot evaluator at every slide boundary (snapshot
  * reducibility, paper Def. 15).
  */
class EngineEquivalenceSpec extends AnyFunSuite {

  private val window = 12L
  private val slide  = 3L

  private def randomStream(seed: Int, nVertices: Int = 10, nEdges: Int = 90,
                           span: Long = 45, labels: Seq[String] = Seq("a", "b", "c")): Vector[Sge] = {
    val rnd = new Random(seed)
    Vector.tabulate(nEdges) { i =>
      Sge(rnd.nextInt(nVertices).toLong, rnd.nextInt(nVertices).toLong,
          labels(rnd.nextInt(labels.size)), i * span / nEdges)
    }.sortBy(_.ts)
  }

  /** Slide-aligned check instants covering fill-up, steady state, drain. */
  private def checkTimes(stream: Vector[Sge]): Seq[Long] = {
    val last = stream.last.ts
    (slide to (last + slide) by slide).map(_ - 1)
  }

  private def assertEquivalent(expr: SgaExpr, stream: Vector[Sge], ctx: String): Unit = {
    val direct = Engine.run(expr, Mode.Direct, stream, slide)
    val nt     = Engine.run(expr, Mode.NegativeTuple, stream, slide)
    val dd     = Engine.run(expr, Mode.Differential, stream, slide)
    for (t <- checkTimes(stream)) {
      val expected = BruteForce.snapshot(expr, stream, t)
      assert(direct.snapshotAt(t) == expected,
        s"[$ctx] direct mode diverges at t=$t: got ${direct.snapshotAt(t)}, want $expected")
      assert(nt.snapshotAt(t) == expected,
        s"[$ctx] negative-tuple mode diverges at t=$t: got ${nt.snapshotAt(t)}, want $expected")
      assert(dd.snapshotAt(t) == expected,
        s"[$ctx] differential mode diverges at t=$t: got ${dd.snapshotAt(t)}, want $expected")
    }
  }

  private val binding = Workloads.Binding("a", "b", "c")

  for (q <- Workloads.queryNames; seed <- Seq(1, 2, 3)) {
    test(s"$q matches brute force on random stream (seed=$seed), both modes") {
      val expr = Workloads.expr(q, binding, window, slide)
      assertEquivalent(expr, randomStream(seed), s"$q/seed=$seed")
    }
  }

  test("Q1 on a single-label dense stream (cycle stress)") {
    val stream = randomStream(7, nVertices = 6, nEdges = 120, labels = Seq("a"))
    assertEquivalent(Workloads.expr("Q1", binding, window, slide), stream, "Q1/dense")
  }

  test("repeated edges and self-loops within one slide (counted window multiset)") {
    // Every slide holds each of its edges twice, self-loops included, and
    // 1→2 and 2→2 recur in every slide — so an expiring copy leaves
    // younger copies of the same edge in the window. 3→1 closes a cycle
    // only every third slide.
    val stream = (0L until 10L).flatMap { k =>
      val ts = k * slide
      val edges = Seq(Sge(1, 2, "a", ts), Sge(2, 2, "a", ts), Sge(2, 3, "b", ts + 1),
                      Sge(3, 3, "b", ts + 1), Sge(3, 3, "c", ts + 2)) ++
        (if (k % 3 == 0) Seq(Sge(3, 1, "a", ts + 2)) else Nil)
      edges ++ edges
    }.toVector.sortBy(_.ts)
    for (q <- Seq("Q1", "Q2", "Q3", "Q4"))
      assertEquivalent(Workloads.expr(q, binding, window, slide), stream, s"$q/repeats")
  }

  test("engine rejects input that is not ts-ordered") {
    val stream = Vector(Sge(1, 2, "a", 0), Sge(2, 3, "a", 5), Sge(3, 1, "a", 4))
    val err = intercept[IllegalArgumentException] {
      Engine.run(Workloads.expr("Q1", binding, window, slide), Mode.Direct, stream, slide)
    }
    assert(err.getMessage.contains("sge 2 has ts 4 < ts 5 of sge 1"), err.getMessage)
  }

  /** Every plan of `q`'s plan space, `size` plans, has canonical `q`'s
    * brute-force answers and agrees with brute force in every mode.
    */
  private def assertPlanSpace(q: String, size: Int, stream: Vector[Sge]): Unit = {
    val plans = Rewriter.plans(Workloads.expr(q, binding, window, slide))
    assert(plans.size == size, s"$q: ${plans.size} plans")
    for ((plan, i) <- plans.zipWithIndex) {
      for (t <- checkTimes(stream))
        assert(BruteForce.snapshot(plan, stream, t) == BruteForce.snapshot(plans.head, stream, t),
               s"$q plan $i differs from the canonical plan at t=$t")
      assertEquivalent(plan, stream, s"$q/plan $i")
    }
  }

  test("Q4 plan variants all agree with brute force (plan-space soundness, §7.4)") {
    assertPlanSpace("Q4", 4, randomStream(11, nVertices = 8, nEdges = 120))
  }

  test("Q2/Q3 alternative plans agree with brute force and the canonical plan") {
    for (q <- Seq("Q2", "Q3")) assertPlanSpace(q, 2, randomStream(13))
  }

  test("FILTER commutes with WSCAN behaviourally (§5.4 rule 1)") {
    val stream = randomStream(17)
    val pred = new SgaExpr.SgtPredicate {
      def apply(src: Long, trg: Long, label: String): Boolean = src != trg
      def describe = "src≠trg"
      def sql = "src <> trg"
    }
    // σ after WSCAN on the expression side vs. σ on the raw stream side.
    val filteredExpr   = SgaExpr.Filter(SgaExpr.Wscan("a", window, slide), pred)
    val filteredStream = stream.filter(e => e.label != "a" || e.src != e.trg)
    val plain          = SgaExpr.Wscan("a", window, slide)
    for (t <- checkTimes(stream))
      assert(BruteForce.snapshot(filteredExpr, stream, t) ==
             BruteForce.snapshot(plain, filteredStream, t))
    assertEquivalent(filteredExpr, stream, "filter/wscan")
  }

  test("UNION distributes over WSCAN behaviourally (§5.4 rule 2)") {
    val stream = randomStream(19)
    val union = SgaExpr.Union(
      List(SgaExpr.Wscan("a", window, slide), SgaExpr.Wscan("b", window, slide)), "u")
    // Relabeling both streams to one label and windowing once is the
    // W(S1 ∪ S2) side; the expression above is W(S1) ∪ W(S2).
    val relabeled = stream.map(e => if (e.label == "b") e.copy(label = "a") else e)
    val once      = SgaExpr.Wscan("a", window, slide)
    for (t <- checkTimes(stream))
      assert(BruteForce.snapshot(union, stream, t) ==
             BruteForce.snapshot(once, relabeled, t))
    assertEquivalent(union, stream, "union/wscan")
  }

  test("direct and NT modes report identical result-set sizes over a full run") {
    val stream = randomStream(23)
    val expr   = Workloads.expr("Q6", binding, window, slide)
    val direct = Engine.run(expr, Mode.Direct, stream, slide)
    val nt     = Engine.run(expr, Mode.NegativeTuple, stream, slide)
    val t      = checkTimes(stream).last
    assert(direct.snapshotAt(t) == nt.snapshotAt(t))
  }

  test("engine skips irrelevant labels (paper §7.2.1)") {
    val stream = randomStream(29, labels = Seq("a", "zzz"))
    val expr   = Workloads.expr("Q1", binding, window, slide)
    val run    = Engine.run(expr, Mode.Direct, stream, slide)
    assert(run.totalEdges == stream.count(_.label == "a"))
  }

  test("tail latency and throughput metrics are populated") {
    val stream = randomStream(31)
    val run    = Engine.run(Workloads.expr("Q1", binding, window, slide), Mode.Direct, stream, slide)
    assert(run.throughputEps > 0)
    assert(run.tailLatencyMs >= 0)
    assert(run.stats.nonEmpty)
  }
}
