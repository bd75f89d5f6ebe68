package repro.physical

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Regex
import repro.core.Regex.{Lbl, Plus}
import repro.core.Model.{Edge, Sgt}
import scala.collection.mutable

class NtPathSpec extends AnyFunSuite {

  private def mkNode(regex: Regex = Plus(Lbl("a")), out: String = "out")
      : (NtPathNode, mutable.Buffer[Delta]) = {
    val n = new NtPathNode(regex, out)
    val sink = mutable.ArrayBuffer.empty[Delta]
    n.sink = sink
    (n, sink)
  }

  private def sgt(s: Long, t: Long, l: String, ts: Long): Sgt =
    Sgt(s, t, l, ts, Long.MaxValue, List(Edge(s, t, l)))

  private val (x, y, z, u) = (1L, 2L, 3L, 4L)

  test("insertions build transitive results") {
    val (n, sink) = mkNode()
    n.receive(Delta(sgt(x, y, "a", 1), 1), 0)
    n.receive(Delta(sgt(y, z, "a", 2), 1), 0)
    assert(sink.map(d => (d.sgt.key, d.sign)).toSet ==
      Set(((x, y, "out"), 1), ((x, z, "out"), 1), ((y, z, "out"), 1)))
  }

  test("deletion without alternative path retracts results") {
    val (n, sink) = mkNode()
    n.receive(Delta(sgt(x, y, "a", 1), 1), 0)
    n.receive(Delta(sgt(y, z, "a", 2), 1), 0)
    sink.clear()
    n.receive(Delta(sgt(y, z, "a", 2), -1), 0)
    assert(sink.map(d => (d.sgt.key, d.sign)).toSet ==
      Set(((x, z, "out"), -1), ((y, z, "out"), -1)))
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
    assert(sink.map(d => (d.sgt.key, d.sign)).toSet == Set(((y, z, "out"), -1)))
    assert(n.traversalSteps > 0, "the NT approach must pay re-derivation work")
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

  test("duplicate edges are counted — deleting one instance changes nothing") {
    val (n, sink) = mkNode()
    n.receive(Delta(sgt(x, y, "a", 1), 1), 0)
    n.receive(Delta(sgt(x, y, "a", 5), 1), 0)
    sink.clear()
    n.receive(Delta(sgt(x, y, "a", 1), -1), 0)
    assert(sink.isEmpty, "one instance remains — no retraction")
    n.receive(Delta(sgt(x, y, "a", 5), -1), 0)
    assert(sink.map(d => (d.sgt.key, d.sign)).toSet == Set(((x, y, "out"), -1)))
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

  test("multi-state regex deletions re-derive per DFA state") {
    val (n, sink) = mkNode(Regex.parse("a b+"), "out")
    n.receive(Delta(sgt(x, y, "a", 1), 1), 0)
    n.receive(Delta(sgt(y, z, "b", 2), 1), 0)
    n.receive(Delta(sgt(z, z, "b", 3), 1), 0) // self loop keeps (x,z) alive
    sink.clear()
    n.receive(Delta(sgt(y, z, "b", 2), -1), 0)
    // Without y→z there is no b-path from y at all: (x,z) dies despite the loop.
    assert(sink.map(d => (d.sgt.key, d.sign)).toSet == Set(((x, z, "out"), -1)))
  }

  test("reinsertion after full deletion rebuilds results") {
    val (n, sink) = mkNode()
    n.receive(Delta(sgt(x, y, "a", 1), 1), 0)
    n.receive(Delta(sgt(x, y, "a", 1), -1), 0)
    sink.clear()
    n.receive(Delta(sgt(x, y, "a", 9), 1), 0)
    assert(sink.map(d => (d.sgt.key, d.sign)).toSet == Set(((x, y, "out"), 1)))
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
    assert(sink.map(d => (d.sgt.key, d.sign)).toSet == pairs.map((_, 1)))
    assert(sink.find(_.sgt.key == (lo, hi, "out")).get.sgt.path == edges.flatMap(_.path))
    sink.clear()
    for (e <- edges) n.receive(Delta(e, -1), 0)
    assert(sink.map(d => (d.sgt.key, d.sign)).toSet == pairs.map((_, -1)))
    assert(n.stateSize == 0 && n.graph.vertices == 0)
  }
}
