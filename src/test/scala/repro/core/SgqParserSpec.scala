package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Rq._
import repro.streams.Workloads

class SgqParserSpec extends AnyFunSuite {

  /** Paper Example 3 — the real-time notification RQ. */
  private val example3 = Program(List(
    Rule("RL", "u1", "u2", List(
      Atom("l", "u1", "m1"), Atom("f", "u1", "u2"), Atom("p", "u2", "m1"))),
    Rule("Notify", "u", "m", List(
      Atom("RL", "u", "u2", closureAs = Some("RLP")),
      Atom("p", "u2", "m"))),
    Rule(AnswerPredicate, "u", "m", List(Atom("Notify", "u", "m")))),
    edbLabels = Set("l", "f", "p"))

  test("dependency graph of Example 3") {
    assert(example3.dependencies == Set(
      ("RL", "l"), ("RL", "f"), ("RL", "p"),
      ("Notify", "RL"), ("Notify", "p"),
      (AnswerPredicate, "Notify")))
  }

  test("Example 3 is non-recursive with a valid topological order") {
    assert(example3.isNonRecursive)
    val order = example3.topologicalOrder.get
    assert(order.indexOf("RL") < order.indexOf("Notify"))
    assert(order.indexOf("Notify") < order.indexOf(AnswerPredicate))
  }

  test("recursive programs are rejected") {
    val rec = Program(List(
      Rule("A", "x", "y", List(Atom("B", "x", "y"))),
      Rule("B", "x", "y", List(Atom("A", "x", "y"))),
      Rule(AnswerPredicate, "x", "y", List(Atom("A", "x", "y")))),
      edbLabels = Set("l"))
    assert(!rec.isNonRecursive)
    assertThrows[IllegalArgumentException](SgqParser.parse(rec, 10))
  }

  test("IDB heads must not collide with EDB labels") {
    assertThrows[IllegalArgumentException](Program(List(
      Rule("l", "x", "y", List(Atom("l", "x", "y"))),
      Rule(AnswerPredicate, "x", "y", List(Atom("l", "x", "y")))),
      edbLabels = Set("l")))
  }

  test("head variables must occur in the body") {
    assertThrows[IllegalArgumentException](
      Rule(AnswerPredicate, "x", "zz", List(Atom("l", "x", "y"))))
  }

  test("canonical translation of Example 3 matches Example 8's shape") {
    val e = SgqParser.parse(example3, windowSize = 24, slide = 1)
    // Answer <- Notify : a single-input PATTERN relabelling Notify.
    val answer = e.asInstanceOf[SgaExpr.Pattern]
    assert(answer.label == AnswerPredicate)
    val notify = answer.ins.head.asInstanceOf[SgaExpr.Pattern]
    assert(notify.label == "Notify")
    // Notify joins PATH(RL+) with WSCAN(p).
    val rlp = notify.ins.head.asInstanceOf[SgaExpr.Path]
    assert(rlp.label == "RLP" && rlp.regex == Regex.Plus(Regex.Lbl("RL")))
    assert(notify.ins(1) == SgaExpr.Wscan("p", 24, 1))
    // RL is the triangle PATTERN over three WSCANs.
    val rl = rlp.ins.head.asInstanceOf[SgaExpr.Pattern]
    assert(rl.label == "RL")
    assert(rl.ins == List(SgaExpr.Wscan("l", 24, 1), SgaExpr.Wscan("f", 24, 1), SgaExpr.Wscan("p", 24, 1)))
    // φ1 = (trg1 = trg3 ∧ src1 = src2 ∧ trg2 = src3) up to orientation:
    // variable m1 links l.trg and p.trg; u1 links l.src and f.src; u2
    // links f.trg and p.src.
    val eqSets = rl.equalities.map { case (x, y) => Set(x, y) }.toSet
    assert(eqSets == Set(
      Set[SgaExpr.Pos](SgaExpr.trg(0), SgaExpr.trg(2)),
      Set[SgaExpr.Pos](SgaExpr.src(0), SgaExpr.src(1)),
      Set[SgaExpr.Pos](SgaExpr.trg(1), SgaExpr.src(2))))
    assert(rl.outSrc == SgaExpr.src(0) && rl.outTrg == SgaExpr.trg(1))
  }

  test("window specification propagates to every WSCAN leaf") {
    def scans(e: SgaExpr): List[SgaExpr.Wscan] = e match {
      case w: SgaExpr.Wscan                 => List(w)
      case SgaExpr.Filter(in, _)            => scans(in)
      case SgaExpr.Union(ins, _)            => ins.flatMap(scans)
      case SgaExpr.Pattern(ins, _, _, _, _) => ins.flatMap(scans)
      case SgaExpr.Path(ins, _, _)          => ins.flatMap(scans)
    }
    val e = SgqParser.parse(example3, windowSize = 720, slide = 24)
    assert(scans(e).forall(w => w.size == 720 && w.slide == 24))
  }

  test("multiple rules with the same head become a UNION") {
    val p = Program(List(
      Rule("D", "x", "y", List(Atom("a", "x", "y"))),
      Rule("D", "x", "y", List(Atom("b", "x", "y"))),
      Rule(AnswerPredicate, "x", "y", List(Atom("D", "x", "y")))),
      edbLabels = Set("a", "b"))
    val e = SgqParser.parse(p, 10)
    val d = e.asInstanceOf[SgaExpr.Pattern].ins.head
    assert(d.isInstanceOf[SgaExpr.Union] && d.outLabel == "D")
    assert(d.asInstanceOf[SgaExpr.Union].ins.size == 2)
  }

  test("closure atom over an EDB label produces a PATH over its WSCAN") {
    val p = Program(List(
      Rule(AnswerPredicate, "x", "y", List(
        Atom("a", "x", "y", closureAs = Some("ap"))))),
      edbLabels = Set("a"))
    val e = SgqParser.parse(p, 30, 3)
    val path = e.asInstanceOf[SgaExpr.Pattern].ins.head.asInstanceOf[SgaExpr.Path]
    assert(path.regex == Regex.Plus(Regex.Lbl("a")))
    assert(path.ins == List(SgaExpr.Wscan("a", 30, 3)))
  }

  test("Q4 canonical plan is the loop-caching form P_{d+}(⋈(a,b,c)) (§7.4)") {
    val e = Workloads.expr("Q4", Workloads.Binding("a", "b", "c"), 30, 1)
    val top = e.asInstanceOf[SgaExpr.Pattern] // Answer relabel
    val dp  = top.ins.head.asInstanceOf[SgaExpr.Path]
    assert(dp.regex == Regex.Plus(Regex.Lbl("d")))
    val d = dp.ins.head.asInstanceOf[SgaExpr.Pattern]
    assert(d.label == "d" && d.ins.size == 3)
    assert(Rewriter.isLinearChain(d))
  }

  test("Q5–Q8 programs translate; every leaf carries the window spec") {
    for (q <- Seq("Q5", "Q6", "Q7", "Q8")) {
      val e = Workloads.expr(q, Workloads.Binding("a", "b", "c"), 30, 5)
      assert(e.outLabel == AnswerPredicate, s"$q should answer")
      assert(e.inputLabels.nonEmpty)
    }
  }

  test("Q8 self-join pattern uses the same EDB label twice") {
    val e = Workloads.expr("Q8", Workloads.Binding("a", "a", "a"), 30, 1)
    assert(e.inputLabels == Set("a"))
  }
}
