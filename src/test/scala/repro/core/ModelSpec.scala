package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Model._
import repro.physical.{Coalescer, Delta}

class ModelSpec extends AnyFunSuite {

  private def sgt(src: Long, trg: Long, l: String, ts: Long, exp: Long): Sgt =
    Sgt(src, trg, l, ts, exp, List(Edge(src, trg, l)))

  test("validAt respects half-open semantics") {
    val t = sgt(1, 2, "a", 10, 20)
    assert(t.validAt(10) && t.validAt(19))
    assert(!t.validAt(9) && !t.validAt(20))
  }

  test("fromSge lifts to a NOW-window tuple with the edge payload") {
    val t = Sgt.fromSge(Sge(1, 2, "a", 42))
    assert(t.ts == 42 && t.exp == 43)
    assert(t.path == List(Edge(1, 2, "a")))
  }

  /** The coalesce rule (Def. 11), as every operator output applies it:
    * each row offers its results, in ts order, to one [[Coalescer]] and
    * lists the results it emits, an extension carrying the merged
    * interval and the payload of the result that extended it.
    */
  private val coalesceCases: Seq[(String, Seq[Sgt], Seq[Sgt])] = Seq(
    ("coalesce merges overlapping value-equivalent tuples (paper Ex. 5)",
      // PATTERN finds (u,RL,v) via two subgraphs: [29,31) and [30,31).
      Seq(sgt(1, 2, "RL", 29, 31), sgt(1, 2, "RL", 30, 31)),
      Seq(sgt(1, 2, "RL", 29, 31))),
    ("coalesce merges adjacent intervals",
      Seq(sgt(1, 2, "a", 0, 5), sgt(1, 2, "a", 5, 9)),
      Seq(sgt(1, 2, "a", 0, 5), sgt(1, 2, "a", 0, 9))),
    ("coalesce keeps disjoint intervals separate",
      Seq(sgt(1, 2, "a", 0, 4), sgt(1, 2, "a", 6, 9)),
      Seq(sgt(1, 2, "a", 0, 4), sgt(1, 2, "a", 6, 9))),
    ("coalesce never merges across value-equivalence classes",
      Seq(sgt(1, 2, "a", 0, 5), sgt(1, 3, "a", 2, 7), sgt(3, 2, "a", 3, 8), sgt(1, 2, "a", 4, 9)),
      Seq(sgt(1, 2, "a", 0, 5), sgt(1, 3, "a", 2, 7), sgt(3, 2, "a", 3, 8), sgt(1, 2, "a", 0, 9))),
    ("coalesce keeps the payload of the largest-expiry representative",
      Seq(Sgt(1, 2, "a", 0, 5, List(Edge(9, 9, "x"))), Sgt(1, 2, "a", 3, 8, List(Edge(8, 8, "y")))),
      Seq(Sgt(1, 2, "a", 0, 5, List(Edge(9, 9, "x"))), Sgt(1, 2, "a", 0, 8, List(Edge(8, 8, "y"))))))

  for ((name, offered, emitted) <- coalesceCases)
    test(name) {
      val c = new Coalescer
      assert(offered.flatMap(t => c.offer(Delta(t, 1))) == emitted.map(Delta(_, 1)))
    }

  test("value-equivalence key ignores the interval and payload") {
    assert(sgt(1, 2, "a", 0, 5).key == sgt(1, 2, "a", 90, 95).key)
  }
}
