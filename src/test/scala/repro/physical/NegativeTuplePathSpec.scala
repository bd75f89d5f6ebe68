package repro.physical

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Regex
import repro.core.Regex.{Lbl, Plus}
import repro.core.Model.{Edge, Sgt}
import scala.collection.mutable

/** The negative-tuple PATH core. [[NtPathNode]] and [[DdPathNode]] share
  * every line except `inserted`, so every case runs on both kinds: in
  * [[NtPathSpec]] and in [[DdPathSpec]]. Only the payload of an insertion
  * differs: NT's is a shortest witness path, DD's the derived edge.
  */
abstract class NegativeTuplePathSpec(kind: (Regex, String) => NegativeTuplePathNode, witnesses: Boolean)
    extends AnyFunSuite {

  private def mkNode(regex: Regex = Plus(Lbl("a")), out: String = "out")
      : (NegativeTuplePathNode, mutable.Buffer[Delta]) = {
    val n = kind(regex, out)
    val sink = mutable.ArrayBuffer.empty[Delta]
    n.sink = sink
    (n, sink)
  }

  private def sgt(s: Long, t: Long, l: String, ts: Long = 0L): Sgt =
    Sgt(s, t, l, ts, Long.MaxValue, List(Edge(s, t, l)))

  private def signed(sink: mutable.Buffer[Delta]) = sink.map(d => (d.sgt.key, d.sign)).toSet

  private val (x, y, z, u) = (1L, 2L, 3L, 4L)

  test("insertions build transitive results") {
    val (n, sink) = mkNode()
    n.receive(Delta(sgt(x, y, "a", 1), 1), 0)
    n.receive(Delta(sgt(y, z, "a", 2), 1), 0)
    assert(signed(sink) == Set(((x, y, "out"), 1), ((x, z, "out"), 1), ((y, z, "out"), 1)))
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

  test("deletion without alternative path retracts results") {
    val (n, sink) = mkNode()
    n.receive(Delta(sgt(x, y, "a", 1), 1), 0)
    n.receive(Delta(sgt(y, z, "a", 2), 1), 0)
    sink.clear()
    n.receive(Delta(sgt(y, z, "a", 2), -1), 0)
    assert(signed(sink) == Set(((x, z, "out"), -1), ((y, z, "out"), -1)))
  }

  test("deletion with an alternative derivation keeps results (re-levelling)") {
    val (n, sink) = mkNode()
    // Two disjoint paths x→z: via y and via u.
    n.receive(Delta(sgt(x, y, "a", 1), 1), 0)
    n.receive(Delta(sgt(y, z, "a", 2), 1), 0)
    n.receive(Delta(sgt(x, u, "a", 3), 1), 0)
    n.receive(Delta(sgt(u, z, "a", 4), 1), 0)
    sink.clear()
    n.receive(Delta(sgt(y, z, "a", 2), -1), 0)
    // (x,z) survives through u; only (y,z) is retracted.
    assert(signed(sink) == Set(((y, z, "out"), -1)))
    assert(n.traversalSteps > 0, "the repair must pay re-derivation work")
  }

  test("deletion with no alternative retracts, with alternative keeps") {
    val (n, sink) = mkNode()
    n.receive(Delta(sgt(x, y, "a"), 1), 0)
    n.receive(Delta(sgt(y, z, "a"), 1), 0)
    n.receive(Delta(sgt(x, z, "a"), 1), 0)
    sink.clear()
    n.receive(Delta(sgt(y, z, "a"), -1), 0)
    // (x,z) survives via the direct edge; (y,z) is gone.
    assert(signed(sink) == Set(((y, z, "out"), -1)))
    assert(n.traversalSteps > 0)
  }

  test("deletion cascades through dependent subtrees") {
    val (n, sink) = mkNode()
    n.receive(Delta(sgt(x, y, "a", 1), 1), 0)
    n.receive(Delta(sgt(y, z, "a", 2), 1), 0)
    n.receive(Delta(sgt(z, u, "a", 3), 1), 0)
    sink.clear()
    n.receive(Delta(sgt(x, y, "a", 1), -1), 0)
    val retracted = sink.filter(_.sign == -1).map(_.sgt.key).toSet
    assert(retracted == Set((x, y, "out"), (x, z, "out"), (x, u, "out")))
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

  test("duplicate edges are counted — deleting one instance changes nothing") {
    for (ts2 <- Seq(5L, 1L)) {
      val (n, sink) = mkNode()
      n.receive(Delta(sgt(x, y, "a", 1), 1), 0)
      n.receive(Delta(sgt(x, y, "a", ts2), 1), 0)
      sink.clear()
      n.receive(Delta(sgt(x, y, "a", 1), -1), 0)
      assert(sink.isEmpty, s"one instance remains — no retraction (second at ts $ts2)")
      n.receive(Delta(sgt(x, y, "a", ts2), -1), 0)
      assert(signed(sink) == Set(((x, y, "out"), -1)))
    }
  }

  test("cycle deletion terminates and retracts the unreachable part") {
    val (n, sink) = mkNode()
    n.receive(Delta(sgt(x, y, "a", 1), 1), 0)
    n.receive(Delta(sgt(y, x, "a", 2), 1), 0)
    sink.clear()
    n.receive(Delta(sgt(x, y, "a", 1), -1), 0)
    val retracted = sink.filter(_.sign == -1).map(_.sgt.key).toSet
    // Only y→x remains: pairs (x,y),(x,x),(y,y) all lose their derivation.
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

  test("multi-state regex deletions re-derive per DFA state") {
    val (n, sink) = mkNode(Regex.parse("a b+"), "out")
    n.receive(Delta(sgt(x, y, "a", 1), 1), 0)
    n.receive(Delta(sgt(y, z, "b", 2), 1), 0)
    n.receive(Delta(sgt(z, z, "b", 3), 1), 0) // self loop keeps (x,z) alive
    sink.clear()
    n.receive(Delta(sgt(y, z, "b", 2), -1), 0)
    // Without y→z there is no b-path from y at all: (x,z) dies despite the loop.
    assert(signed(sink) == Set(((x, z, "out"), -1)))
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

  test("reinsertion after full deletion rebuilds results") {
    val (n, sink) = mkNode()
    n.receive(Delta(sgt(x, y, "a", 1), 1), 0)
    n.receive(Delta(sgt(x, y, "a", 1), -1), 0)
    sink.clear()
    n.receive(Delta(sgt(x, y, "a", 9), 1), 0)
    assert(signed(sink) == Set(((x, y, "out"), 1)))
  }

  test("a tree goes once only its root is left: deleted edges leave no state") {
    val (n, sink) = mkNode()
    for (i <- 0L until 1000L) {
      val e = sgt(2 * i, 2 * i + 1, "a", i)
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
    assertThrows[IllegalArgumentException](n.receive(Delta(sgt(x, 1L << 47, "a", 1), 1), 0))
    assert(n.stateSize == 0 && n.graph.vertices == 0)
    n.receive(Delta(sgt(y, x, "a", 1), 1), 0)
    assert(sink.map(d => (d.sgt.key, d.sign)) == Seq(((y, x, "out"), 1)))
  }

  test("negative vertex ids and ids of ±(2^47 − 1) round-trip") {
    val (n, sink) = mkNode()
    val (lo, hi) = (1 - (1L << 47), (1L << 47) - 1)
    val edges    = Seq(sgt(lo, -1L, "a", 1), sgt(-1L, hi, "a", 1))
    val pairs    = Set((lo, -1L, "out"), (-1L, hi, "out"), (lo, hi, "out"))
    for (e <- edges) n.receive(Delta(e, 1), 0)
    assert(signed(sink) == pairs.map((_, 1)))
    val payload = if (witnesses) edges.flatMap(_.path) else List(Edge(lo, hi, "out"))
    assert(sink.find(_.sgt.key == (lo, hi, "out")).get.sgt.path == payload)
    sink.clear()
    for (e <- edges) n.receive(Delta(e, -1), 0)
    assert(signed(sink) == pairs.map((_, -1)))
    assert(n.stateSize == 0 && n.graph.vertices == 0)
  }
}

final class NtPathSpec extends NegativeTuplePathSpec(new NtPathNode(_, _), witnesses = true)

final class DdPathSpec extends NegativeTuplePathSpec(new DdPathNode(_, _), witnesses = false)
