package repro.physical

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Regex
import repro.core.Regex.{Lbl, Plus}
import repro.core.Model.{Edge, Sgt}
import scala.collection.mutable

class DdPathSpec extends AnyFunSuite {

  private def mkNode(regex: Regex = Plus(Lbl("a")), out: String = "out")
      : (DdPathNode, mutable.Buffer[Delta]) = {
    val n = new DdPathNode(regex, out)
    val sink = mutable.ArrayBuffer.empty[Delta]
    n.sink = sink
    (n, sink)
  }

  private def sgt(s: Long, t: Long, l: String): Sgt =
    Sgt(s, t, l, 0L, Long.MaxValue, List(Edge(s, t, l)))

  private val (x, y, z, u) = (1L, 2L, 3L, 4L)

  test("insertions relax rounds and emit reachable pairs") {
    val (n, sink) = mkNode()
    n.receive(Delta(sgt(x, y, "a"), 1), 0)
    n.receive(Delta(sgt(y, z, "a"), 1), 0)
    assert(sink.map(d => (d.sgt.key, d.sign)).toSet ==
      Set(((x, y, "out"), 1), ((x, z, "out"), 1), ((y, z, "out"), 1)))
  }

  test("a shortcut edge re-stabilizes rounds without result churn") {
    val (n, sink) = mkNode()
    n.receive(Delta(sgt(x, y, "a"), 1), 0)
    n.receive(Delta(sgt(y, z, "a"), 1), 0)
    sink.clear()
    val before = n.traversalSteps
    n.receive(Delta(sgt(x, z, "a"), 1), 0) // (x,z) now round 1, was round 2
    assert(sink.isEmpty, "(x,z) was already reachable — no result delta")
    assert(n.traversalSteps > before, "round relaxation work was performed")
  }

  test("deletion with no alternative retracts, with alternative keeps") {
    val (n, sink) = mkNode()
    n.receive(Delta(sgt(x, y, "a"), 1), 0)
    n.receive(Delta(sgt(y, z, "a"), 1), 0)
    n.receive(Delta(sgt(x, z, "a"), 1), 0)
    sink.clear()
    n.receive(Delta(sgt(y, z, "a"), -1), 0)
    // (x,z) survives via the direct edge; (y,z) is gone.
    assert(sink.map(d => (d.sgt.key, d.sign)).toSet == Set(((y, z, "out"), -1)))
    assert(n.traversalSteps > 0)
  }

  test("cycle deletion drops unreachable tuples") {
    val (n, sink) = mkNode()
    n.receive(Delta(sgt(x, y, "a"), 1), 0)
    n.receive(Delta(sgt(y, x, "a"), 1), 0)
    sink.clear()
    n.receive(Delta(sgt(x, y, "a"), -1), 0)
    val retracted = sink.filter(_.sign == -1).map(_.sgt.key).toSet
    assert(retracted == Set((x, y, "out"), (x, x, "out"), (y, y, "out")))
  }

  test("deleting the entry edge of a clique visits each affected tuple about twice") {
    // K_30 of `a` edges plus the entry edge r -> 0. Without it nothing
    // reaches the clique from r, so r's 30 results go and its tree with
    // them; the 30 clique trees of 31 tuples stay. Levels must not be
    // counted upward round by round until they pass a bound.
    val (n, sink) = mkNode()
    val m     = 30L
    val r     = m
    val edges = (for (i <- 0L until m; j <- 0L until m if i != j) yield sgt(i, j, "a")) :+ sgt(r, 0L, "a")
    for (e <- edges) n.receive(Delta(e, 1), 0)
    sink.clear()
    val before = n.traversalSteps
    n.receive(Delta(sgt(r, 0L, "a"), -1), 0)
    val steps = n.traversalSteps - before
    assert(steps <= 4L * edges.size, s"$steps steps for ${edges.size} window edges")
    assert(sink.map(d => (d.sgt.key, d.sign)).sorted ==
      (0L until m).map(i => ((r, i, "out"), -1)).sorted)
    assert(n.stateSize == m * (m + 1))
  }

  test("deletion cascades round shifts through successors") {
    val (n, sink) = mkNode()
    // Chain x→y→z→u plus shortcut x→z.
    for (e <- Seq(sgt(x, y, "a"), sgt(y, z, "a"), sgt(z, u, "a"), sgt(x, z, "a")))
      n.receive(Delta(e, 1), 0)
    sink.clear()
    n.receive(Delta(sgt(x, z, "a"), -1), 0)
    // All pairs still derivable through the chain — no retraction, but
    // re-stabilization work was done ((x,z) and (x,u) shift rounds).
    assert(sink.isEmpty)
    assert(n.traversalSteps > 0)
  }

  test("duplicate edges are counted") {
    val (n, sink) = mkNode()
    n.receive(Delta(sgt(x, y, "a"), 1), 0)
    n.receive(Delta(sgt(x, y, "a"), 1), 0)
    sink.clear()
    n.receive(Delta(sgt(x, y, "a"), -1), 0)
    assert(sink.isEmpty)
    n.receive(Delta(sgt(x, y, "a"), -1), 0)
    assert(sink.map(d => (d.sgt.key, d.sign)).toSet == Set(((x, y, "out"), -1)))
  }

  test("multi-state regex: rounds tracked per (vertex, state)") {
    val (n, sink) = mkNode(Regex.parse("a b+"), "out")
    n.receive(Delta(sgt(x, y, "a"), 1), 0)
    n.receive(Delta(sgt(y, z, "b"), 1), 0)
    n.receive(Delta(sgt(z, y, "b"), 1), 0)
    assert(sink.map(_.sgt.key).toSet == Set((x, z, "out"), (x, y, "out")))
    sink.clear()
    n.receive(Delta(sgt(y, z, "b"), -1), 0)
    // Without y→z nothing is b-reachable from y anymore.
    assert(sink.filter(_.sign == -1).map(_.sgt.key).toSet ==
      Set((x, z, "out"), (x, y, "out")))
  }

  test("a tree goes once only its root is left: deleted edges leave no state") {
    val (n, sink) = mkNode()
    for (i <- 0L until 1000L) {
      val e = sgt(2 * i, 2 * i + 1, "a")
      n.receive(Delta(e, 1), 0)
      assert(n.stateSize == 2)
      n.receive(Delta(e, -1), 0)
      assert(n.stateSize == 0)
      assert(n.graph.vertices == 0, "the window keeps no entry for a vertex without edges")
    }
    assert(sink.count(_.sign == 1) == 1000 && sink.count(_.sign == -1) == 1000)
  }

  test("an out-of-range vertex id throws before the window changes") {
    val (n, sink) = mkNode()
    assertThrows[IllegalArgumentException](n.receive(Delta(sgt(x, 1L << 47, "a"), 1), 0))
    assert(n.stateSize == 0 && n.graph.vertices == 0)
    n.receive(Delta(sgt(y, x, "a"), 1), 0)
    assert(sink.map(d => (d.sgt.key, d.sign)) == Seq(((y, x, "out"), 1)))
  }

  test("negative vertex ids and ids of ±(2^47 − 1) round-trip") {
    val (n, sink) = mkNode()
    val (lo, hi) = (1 - (1L << 47), (1L << 47) - 1)
    val edges    = Seq(sgt(lo, -1L, "a"), sgt(-1L, hi, "a"))
    val pairs    = Set((lo, -1L, "out"), (-1L, hi, "out"), (lo, hi, "out"))
    for (e <- edges) n.receive(Delta(e, 1), 0)
    assert(sink.map(d => (d.sgt.key, d.sign)).toSet == pairs.map((_, 1)))
    sink.clear()
    for (e <- edges) n.receive(Delta(e, -1), 0)
    assert(sink.map(d => (d.sgt.key, d.sign)).toSet == pairs.map((_, -1)))
    assert(n.stateSize == 0 && n.graph.vertices == 0)
  }
}
