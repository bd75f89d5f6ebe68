package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Regex.{Alt, Concat, Lbl, Plus, Star}
import repro.streams.Workloads
import scala.collection.mutable

class RewriterSpec extends AnyFunSuite {

  private def w(l: String) = SgaExpr.Wscan(l, 30, 1)

  /** The plans of `e` other than `e` itself. */
  private def alternatives(e: SgaExpr): List[SgaExpr] = {
    val all = Rewriter.plans(e)
    assert(all.head == e, "plans must list the expression itself first")
    all.tail
  }

  /** The one alternative plan of `e`. */
  private def only(e: SgaExpr): SgaExpr = {
    val alts = alternatives(e)
    assert(alts.size == 1, s"${alts.size} alternatives of ${e.render}")
    alts.head
  }

  test("alternation rule: P_{a|b}(Sa,Sb) = ∪(Sa,Sb)") {
    val path = SgaExpr.Path(List(w("a"), w("b")), Regex.alt(Lbl("a"), Lbl("b")), "d")
    assert(only(path) == SgaExpr.Union(List(w("a"), w("b")), "d"))
  }

  test("alternation rule does not fire on non-label alternatives") {
    val path = SgaExpr.Path(List(w("a"), w("b")),
      Regex.alt(Lbl("a"), Regex.concat(Lbl("b"), Lbl("a"))), "d")
    assert(alternatives(path).isEmpty)
  }

  test("concatenation rule: P_{a·b}(Sa,Sb) = ⋈_{trg1=src2}(Sa,Sb)") {
    val path = SgaExpr.Path(List(w("a"), w("b")), Regex.concat(Lbl("a"), Lbl("b")), "d")
    val out  = only(path).asInstanceOf[SgaExpr.Pattern]
    assert(out.ins == List(w("a"), w("b")))
    assert(out.equalities == List((SgaExpr.trg(0), SgaExpr.src(1))))
    assert(out.outSrc == SgaExpr.src(0) && out.outTrg == SgaExpr.trg(1))
    assert(Rewriter.isLinearChain(out))
  }

  test("concatenation rule generalizes to longer chains") {
    val path = SgaExpr.Path(List(w("a"), w("b"), w("c")),
      Regex.concat(Lbl("a"), Lbl("b"), Lbl("c")), "d")
    val out = only(path).asInstanceOf[SgaExpr.Pattern]
    assert(out.equalities ==
      List((SgaExpr.trg(0), SgaExpr.src(1)), (SgaExpr.trg(1), SgaExpr.src(2))))
  }

  test("concatenation rule does not fire under a closure") {
    val path = SgaExpr.Path(List(w("a"), w("b")),
      Plus(Regex.concat(Lbl("a"), Lbl("b"))), "d")
    assert(alternatives(path).isEmpty)
  }

  /** SGQParser's Q4 (the `Answer` relabel of `P_{d+}(⋈(a,b,c))`) and
    * Fig. 8's P1–P3, each under that relabel.
    */
  private def q4(bind: Workloads.Binding): (SgaExpr, List[SgaExpr]) = {
    val Workloads.Binding(a, b, c) = bind
    def answer(path: SgaExpr) = SgaExpr.Pattern(List(path), Nil, SgaExpr.src(0), SgaExpr.trg(0), "Answer")
    val p1 = SgaExpr.Path(List(w(a), w(b), w(c)), Plus(Regex.concat(Lbl(a), Lbl(b), Lbl(c))), "dp")
    val p2 = SgaExpr.Path(List(w(a), SgaExpr.chain(List(w(b), w(c)), "d")), Plus(Regex.concat(Lbl(a), Lbl("d"))), "dp")
    val p3 = SgaExpr.Path(List(SgaExpr.chain(List(w(a), w(b)), "d"), w(c)), Plus(Regex.concat(Lbl("d"), Lbl(c))), "dp")
    (Workloads.expr("Q4", bind, 30, 1), List(p1, p2, p3).map(answer))
  }

  test("fold rule turns canonical Q4 into plan P1 (§7.4)") {
    val (canonical, p123) = q4(Workloads.Binding("a", "b", "c"))
    assert(alternatives(canonical).head == p123.head)
  }

  test("the plans of canonical Q4 are exactly SGA and P1–P3 of Fig. 8 on both bindings") {
    for (bind <- Seq(Workloads.soBinding("Q4"), Workloads.ldbcBinding("Q4"))) {
      val (canonical, p123) = q4(bind)
      assert(Rewriter.plans(canonical) == canonical :: p123, s"$bind")
    }
  }

  test("fold rule refuses non-linear patterns") {
    val triangle = SgaExpr.Pattern(List(w("a"), w("b"), w("c")),
      List((SgaExpr.trg(0), SgaExpr.src(1)), (SgaExpr.trg(1), SgaExpr.src(2)),
           (SgaExpr.trg(2), SgaExpr.src(0))),
      SgaExpr.src(0), SgaExpr.trg(2), "d")
    val path = SgaExpr.Path(List(triangle), Plus(Lbl("d")), "Answer")
    assert(alternatives(path).isEmpty)
  }

  test("fold rule refuses a chain over one label repeated, without throwing") {
    assert(alternatives(Workloads.expr("Q4", Workloads.Binding("a", "a", "a"), 30, 1)).isEmpty)
  }

  test("isLinearChain rejects reversed projections") {
    val p = SgaExpr.Pattern(List(w("a"), w("b")),
      List((SgaExpr.trg(0), SgaExpr.src(1))), SgaExpr.trg(1), SgaExpr.src(0), "d")
    assert(!Rewriter.isLinearChain(p))
  }

  /** `e` with each derived label (neither an input stream's nor `Answer`)
    * renamed by its first appearance, children before parents.
    */
  private def derivedRenamed(e: SgaExpr): SgaExpr = {
    val names = mutable.Map.empty[String, String]
    def name(l: String) = if (e.inputLabels(l) || l == "Answer") l else names.getOrElseUpdate(l, s"#${names.size}")
    def regex(r: Regex): Regex = r match {
      case Lbl(l)     => Lbl(name(l))
      case Concat(rs) => Concat(rs.map(regex))
      case Alt(rs)    => Alt(rs.map(regex))
      case Star(r)    => Star(regex(r))
      case Plus(r)    => Plus(regex(r))
    }
    def go(x: SgaExpr): SgaExpr = x match {
      case s: SgaExpr.Wscan                 => s
      case SgaExpr.Filter(in, p)            => SgaExpr.Filter(go(in), p)
      case SgaExpr.Union(ins, d)            => val is = ins.map(go); SgaExpr.Union(is, name(d))
      case SgaExpr.Pattern(ins, q, s, t, d) => val is = ins.map(go); SgaExpr.Pattern(is, q, s, t, name(d))
      case SgaExpr.Path(ins, r, d)          => val is = ins.map(go); SgaExpr.Path(is, regex(r), name(d))
    }
    go(e)
  }

  test("Q2 and Q3 have one alternative each, Fig. 9's star expansion") {
    val (wa, wb, wc) = (w("a"), w("b"), w("c"))
    val bp = SgaExpr.Path(List(wb), Plus(Lbl("b")), "bp")
    val cp = SgaExpr.Path(List(wc), Plus(Lbl("c")), "cp")
    val q2 = SgaExpr.Union(List(wa, SgaExpr.chain(List(wa, bp), "abp")), "Answer")
    val q3 = SgaExpr.Union(List(wa, SgaExpr.chain(List(wa, bp), "abp"), SgaExpr.chain(List(wa, cp), "acp"),
                                SgaExpr.chain(List(wa, bp, cp), "abcp")), "Answer")
    for ((q, want) <- Seq("Q2" -> q2, "Q3" -> q3)) {
      val got = only(Workloads.expr(q, Workloads.Binding("a", "b", "c"), 30, 1))
      assert(derivedRenamed(got) == derivedRenamed(want), s"$q: ${got.render}")
    }
  }

  test("Q1 and Q5–Q8 have no alternative plan") {
    for (q <- Seq("Q1", "Q5", "Q6", "Q7", "Q8"); bind <- Seq(Workloads.soBinding(q), Workloads.ldbcBinding(q)))
      assert(alternatives(Workloads.expr(q, bind, 30, 1)).isEmpty, s"$q $bind")
  }
}
