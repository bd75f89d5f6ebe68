package repro.physical

import org.scalatest.funsuite.AnyFunSuite
import repro.core.SgaExpr
import repro.core.SgaExpr.{src, trg}
import repro.core.Model.{Edge, Sgt}
import scala.collection.mutable

class PatternNodeSpec extends AnyFunSuite {

  private def w(l: String) = SgaExpr.Wscan(l, 30, 1)

  private def chain2(d: String = "d"): SgaExpr.Pattern =
    SgaExpr.Pattern(List(w("a"), w("b")), List((trg(0), src(1))), src(0), trg(1), d)

  private def mk(p: SgaExpr.Pattern, mode: Mode): (PatternNode, mutable.Buffer[Delta]) = {
    val n = new PatternNode(p, SetSemantics(mode))
    val sink = mutable.ArrayBuffer.empty[Delta]
    n.sink = sink
    (n, sink)
  }

  private def sgt(s: Long, t: Long, l: String, ts: Long, exp: Long): Sgt =
    Sgt(s, t, l, ts, exp, List(Edge(s, t, l)))

  test("two-way join matches on the shared vertex with interval intersection") {
    val (n, sink) = mk(chain2(), Mode.Direct)
    n.receive(Delta(sgt(1, 2, "a", 0, 10), 1), 0)
    assert(sink.isEmpty)
    n.receive(Delta(sgt(2, 3, "b", 5, 15), 1), 1)
    assert(sink.map(_.sgt.key).toSet == Set((1L, 3L, "d")))
    val r = sink.head.sgt
    assert(r.ts == 5 && r.exp == 10)
  }

  test("disjoint validity intervals never join in direct mode") {
    val (n, sink) = mk(chain2(), Mode.Direct)
    n.receive(Delta(sgt(1, 2, "a", 0, 5), 1), 0)
    n.receive(Delta(sgt(2, 3, "b", 7, 15), 1), 1)
    assert(sink.isEmpty)
  }

  test("symmetric: arrival order does not matter") {
    val (n1, s1) = mk(chain2(), Mode.Direct)
    n1.receive(Delta(sgt(1, 2, "a", 0, 10), 1), 0)
    n1.receive(Delta(sgt(2, 3, "b", 1, 10), 1), 1)
    val (n2, s2) = mk(chain2(), Mode.Direct)
    n2.receive(Delta(sgt(2, 3, "b", 1, 10), 1), 1)
    n2.receive(Delta(sgt(1, 2, "a", 0, 10), 1), 0)
    assert(s1.map(_.sgt.key).toSet == s2.map(_.sgt.key).toSet)
  }

  test("three-way chain pipelines through levels") {
    val p = SgaExpr.Pattern(List(w("a"), w("b"), w("c")),
      List((trg(0), src(1)), (trg(1), src(2))), src(0), trg(2), "d")
    val (n, sink) = mk(p, Mode.Direct)
    n.receive(Delta(sgt(1, 2, "a", 0, 30), 1), 0)
    n.receive(Delta(sgt(3, 4, "c", 0, 30), 1), 2)
    assert(sink.isEmpty)
    n.receive(Delta(sgt(2, 3, "b", 0, 30), 1), 1)
    assert(sink.map(_.sgt.key).toSet == Set((1L, 4L, "d")))
  }

  test("triangle pattern (paper Ex. 5 shape) with three equalities") {
    // RL: l(u1,m1), f(u1,u2), p(u2,m1) — out (src1, trg2).
    val p = SgaExpr.Pattern(List(w("l"), w("f"), w("p")),
      List((trg(0), trg(2)), (src(0), src(1)), (trg(1), src(2))),
      src(0), trg(1), "RL")
    val (n, sink) = mk(p, Mode.Direct)
    n.receive(Delta(sgt(10, 100, "l", 0, 30), 1), 0) // u likes m
    n.receive(Delta(sgt(10, 20, "f", 0, 30), 1), 1)  // u follows v
    n.receive(Delta(sgt(20, 100, "p", 0, 30), 1), 2) // v posted m
    assert(sink.map(_.sgt.key).toSet == Set((10L, 20L, "RL")))
    // A non-matching post (different message) must not join.
    n.receive(Delta(sgt(20, 101, "p", 0, 30), 1), 2)
    assert(sink.size == 1)
  }

  test("intra-input equality acts as a filter (self-loop atoms)") {
    val p = SgaExpr.Pattern(List(w("a")), List((src(0), trg(0))), src(0), trg(0), "d")
    val (n, sink) = mk(p, Mode.Direct)
    n.receive(Delta(sgt(1, 2, "a", 0, 30), 1), 0)
    assert(sink.isEmpty)
    n.receive(Delta(sgt(5, 5, "a", 0, 30), 1), 0)
    assert(sink.map(_.sgt.key).toSet == Set((5L, 5L, "d")))
  }

  test("Q8 shape: self-join on a shared target vertex") {
    // P(x,y) <- a(x,z), a(y,z): both slots see the same stream.
    val p = SgaExpr.Pattern(List(w("a"), w("a")), List((trg(0), trg(1))), src(0), src(1), "P")
    val (n, sink) = mk(p, Mode.Direct)
    for (e <- Seq(sgt(1, 9, "a", 0, 30), sgt(2, 9, "a", 1, 30))) {
      n.receive(Delta(e, 1), 0); n.receive(Delta(e, 1), 1)
    }
    assert(sink.map(_.sgt.key).toSet ==
      Set((1L, 1L, "P"), (1L, 2L, "P"), (2L, 1L, "P"), (2L, 2L, "P")))
  }

  test("coalescer merges value-equivalent results from alternative derivations") {
    val (n, sink) = mk(chain2(), Mode.Direct)
    n.receive(Delta(sgt(1, 2, "a", 0, 10), 1), 0)
    n.receive(Delta(sgt(2, 3, "b", 1, 10), 1), 1)
    n.receive(Delta(sgt(1, 7, "a", 2, 12), 1), 0) // different mid vertex
    n.receive(Delta(sgt(7, 3, "b", 2, 12), 1), 1)
    val results = sink.filter(_.sgt.key == (1L, 3L, "d"))
    assert(results.size == 2 && results.last.sgt.exp == 12,
      "second derivation extends the result's validity")
    // A third derivation covered by [?, 12) must be suppressed.
    n.receive(Delta(sgt(1, 8, "a", 3, 11), 1), 0)
    n.receive(Delta(sgt(8, 3, "b", 3, 11), 1), 1)
    assert(sink.count(_.sgt.key == (1L, 3L, "d")) == 2)
  }

  test("direct advance purges expired state") {
    val (n, _) = mk(chain2(), Mode.Direct)
    n.receive(Delta(sgt(1, 2, "a", 0, 10), 1), 0)
    n.receive(Delta(sgt(4, 5, "b", 0, 20), 1), 1)
    assert(n.stateSize == 2)
    n.advance(10)
    assert(n.stateSize == 1)
    n.advance(20)
    assert(n.stateSize == 0)
  }

  private def chain3: SgaExpr.Pattern =
    SgaExpr.Pattern(List(w("a"), w("b"), w("c")),
      List((trg(0), src(1)), (trg(1), src(2))), src(0), trg(2), "d")

  test("an older-expiring entry that arrives after younger ones on its key expires on time") {
    val (n, sink) = mk(chain3, Mode.Direct)
    n.receive(Delta(sgt(1, 2, "a", 0, 30), 1), 0)
    n.receive(Delta(sgt(2, 3, "b", 0, 30), 1), 1)
    // Same src and trg keys as a(1,2) [0,30), older expiry (a PATH input can do this).
    n.receive(Delta(sgt(1, 2, "a", 1, 10), 1), 0)
    assert(n.stateSize == 3)
    n.advance(10)
    assert(n.stateSize == 2, "a(1,2) [1,10) expires at 10, before its keys' older bucket")
    n.receive(Delta(sgt(3, 9, "c", 11, 40), 1), 2)
    assert(sink.map(d => (d.sgt.key, d.sgt.ts, d.sgt.exp)).toList == List(((1L, 9L, "d"), 11L, 30L)))
    n.advance(30)
    assert(n.stateSize == 1)
  }

  test("Q5-shaped 4-cycle: every arrival order yields the one result with the intersected interval") {
    // knows(x,y), hasCreator(m1,x), hasCreator(m2,y), replyOf(m2,m1) -> (m1, m2)
    val p = SgaExpr.Pattern(List(w("k"), w("h"), w("h"), w("r")),
      List((src(0), trg(1)), (trg(0), trg(2)), (src(1), trg(3)), (src(2), src(3))),
      src(1), src(2), "Q5")
    val tuples = Seq(sgt(1, 2, "k", 0, 30), sgt(10, 1, "h", 2, 25), sgt(20, 2, "h", 4, 28), sgt(20, 10, "r", 6, 40))
    for (order <- tuples.indices.permutations) {
      val (n, sink) = mk(p, Mode.Direct)
      order.foreach(i => n.receive(Delta(tuples(i), 1), i))
      assert(sink.map(d => (d.sgt.key, d.sgt.ts, d.sgt.exp)).toList == List(((10L, 20L, "Q5"), 6L, 25L)),
        s"arrival order $order")
      assert(n.stateSize == 4)
    }
  }

  test("a pattern with no equality yields the full cross product") {
    val p = SgaExpr.Pattern(List(w("a"), w("b")), Nil, src(0), trg(1), "d")
    val (n, sink) = mk(p, Mode.Direct)
    n.receive(Delta(sgt(1, 2, "a", 0, 30), 1), 0)
    n.receive(Delta(sgt(5, 6, "b", 1, 30), 1), 1)
    n.receive(Delta(sgt(3, 4, "a", 2, 30), 1), 0)
    n.receive(Delta(sgt(7, 8, "b", 3, 30), 1), 1)
    assert(sink.map(_.sgt.key).toSet == Set((1L, 6L, "d"), (1L, 8L, "d"), (3L, 6L, "d"), (3L, 8L, "d")))
  }

  test("equalities src0 = src1 and trg0 = src1 keep only self-loops of input 0") {
    val p = SgaExpr.Pattern(List(w("a"), w("b")), List((src(0), src(1)), (trg(0), src(1))), src(0), trg(1), "d")
    val (n, sink) = mk(p, Mode.Direct)
    n.receive(Delta(sgt(1, 2, "a", 0, 30), 1), 0)
    n.receive(Delta(sgt(5, 5, "a", 0, 30), 1), 0)
    n.receive(Delta(sgt(1, 9, "b", 1, 30), 1), 1)
    n.receive(Delta(sgt(2, 9, "b", 1, 30), 1), 1)
    n.receive(Delta(sgt(5, 9, "b", 1, 30), 1), 1)
    assert(sink.map(_.sgt.key).toList == List((5L, 9L, "d")))
    assert(n.stateSize == 4, "a(1,2) is not stored")
  }

  test("negative-tuple deletion of a tuple indexed on src and trg empties both groups") {
    val (n, sink) = mk(chain3, Mode.NegativeTuple)
    def t(s: Long, d: Long, l: String) = sgt(s, d, l, 0, Long.MaxValue)
    n.receive(Delta(t(2, 3, "b"), 1), 1)
    n.receive(Delta(t(2, 3, "b"), -1), 1)
    assert(n.stateSize == 0)
    // a(1,2) probes b's src group 2, c(3,4) its trg group 3: both are empty.
    n.receive(Delta(t(1, 2, "a"), 1), 0)
    n.receive(Delta(t(3, 4, "c"), 1), 2)
    assert(sink.isEmpty)
    intercept[IllegalArgumentException](n.receive(Delta(t(2, 3, "b"), -1), 1))
  }

  test("one advance that passes several expiry buckets purges all of them") {
    val (n, _) = mk(chain2(), Mode.Direct)
    n.receive(Delta(sgt(1, 2, "a", 0, 10), 1), 0)
    n.receive(Delta(sgt(3, 2, "a", 1, 20), 1), 0)
    n.receive(Delta(sgt(4, 7, "a", 2, 30), 1), 0)
    n.receive(Delta(sgt(8, 9, "b", 3, 40), 1), 1)
    assert(n.stateSize == 4)
    n.advance(35)
    assert(n.stateSize == 1)
    n.advance(40)
    assert(n.stateSize == 0)
  }

  test("coalescer keeps a key whose interval was extended past its old expiry") {
    val (n, sink) = mk(chain2(), Mode.Direct)
    n.receive(Delta(sgt(1, 2, "a", 0, 10), 1), 0)
    n.receive(Delta(sgt(2, 3, "b", 0, 10), 1), 1) // (1,3) [0,10)
    n.receive(Delta(sgt(1, 4, "a", 5, 20), 1), 0)
    n.receive(Delta(sgt(4, 3, "b", 5, 20), 1), 1) // extends (1,3) to [0,20)
    assert(sink.count(_.sgt.key == (1L, 3L, "d")) == 2)
    n.advance(10)
    // Covered by the extended [0,20): suppressed unless the key was purged at 10.
    n.receive(Delta(sgt(1, 6, "a", 12, 18), 1), 0)
    n.receive(Delta(sgt(6, 3, "b", 12, 18), 1), 1)
    assert(sink.count(_.sgt.key == (1L, 3L, "d")) == 2)
  }

  test("negative-tuple deletion finds its entry among others on the same key") {
    val (n, sink) = mk(chain2(), Mode.NegativeTuple)
    def a(s: Long) = sgt(s, 2, "a", 0, Long.MaxValue)
    Seq(a(1), a(3), a(4)).foreach(t => n.receive(Delta(t, 1), 0))
    n.receive(Delta(sgt(2, 5, "b", 0, Long.MaxValue), 1), 1)
    assert(n.stateSize == 4)
    n.receive(Delta(a(3), -1), 0)
    assert(n.stateSize == 3)
    assert(sink.filter(_.sign == -1).map(_.sgt.key).toList == List((3L, 5L, "d")))
    intercept[IllegalArgumentException](n.receive(Delta(a(3), -1), 0))
  }

  test("negative-tuple mode retracts join results on deletion") {
    val (n, sink) = mk(chain2(), Mode.NegativeTuple)
    val a = sgt(1, 2, "a", 0, Long.MaxValue)
    val b = sgt(2, 3, "b", 1, Long.MaxValue)
    n.receive(Delta(a, 1), 0)
    n.receive(Delta(b, 1), 1)
    assert(sink.map(d => (d.sgt.key, d.sign)).toList == List(((1L, 3L, "d"), 1)))
    n.receive(Delta(a, -1), 0)
    assert(sink.map(d => (d.sgt.key, d.sign)).toList ==
      List(((1L, 3L, "d"), 1), ((1L, 3L, "d"), -1)))
  }

  test("counting distinct suppresses duplicate derivations in NT mode") {
    val (n, sink) = mk(chain2(), Mode.NegativeTuple)
    n.receive(Delta(sgt(1, 2, "a", 0, Long.MaxValue), 1), 0)
    n.receive(Delta(sgt(2, 3, "b", 1, Long.MaxValue), 1), 1)
    n.receive(Delta(sgt(1, 7, "a", 2, Long.MaxValue), 1), 0)
    n.receive(Delta(sgt(7, 3, "b", 3, Long.MaxValue), 1), 1)
    assert(sink.count(_.sgt.key == (1L, 3L, "d")) == 1, "second derivation is not re-emitted")
    // Deleting one derivation keeps the result; deleting both retracts it.
    n.receive(Delta(sgt(2, 3, "b", 1, Long.MaxValue), -1), 1)
    assert(sink.count(_.sign == -1) == 0)
    n.receive(Delta(sgt(7, 3, "b", 3, Long.MaxValue), -1), 1)
    assert(sink.count(_.sign == -1) == 1)
  }
}
