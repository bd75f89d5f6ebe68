package repro.physical

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Regex
import repro.core.Regex.{Lbl, Plus}
import repro.core.Model.{Edge, Sgt}
import scala.collection.mutable

class SPathSpec extends AnyFunSuite {

  private def mkNode(regex: Regex = Plus(Lbl("RL")), out: String = "RLP")
      : (SPathNode, mutable.Buffer[Delta]) = {
    val n = new SPathNode(regex, out)
    val sink = mutable.ArrayBuffer.empty[Delta]
    n.sink = sink
    (n, sink)
  }

  private def sgt(s: Long, t: Long, l: String, ts: Long, exp: Long): Sgt =
    Sgt(s, t, l, ts, exp, List(Edge(s, t, l)))

  private def feed(n: SPathNode, ts: Sgt*): Unit = ts.foreach(t => n.receive(Delta(t, 1), 0))

  // Vertex ids used in the paper-style scenario.
  private val (x, y, z, u, v) = (1L, 2L, 3L, 4L, 5L)

  test("single edge produces a length-1 result with the edge's interval") {
    val (n, sink) = mkNode()
    feed(n, sgt(x, y, "RL", 25, 37))
    assert(sink.map(_.sgt.key).contains((x, y, "RLP")))
    val r = sink.find(_.sgt.key == (x, y, "RLP")).get.sgt
    assert(r.ts == 25 && r.exp == 37)
    assert(r.path == List(Edge(x, y, "RL")))
  }

  test("two-hop expansion emits the transitive pair with the interval intersection") {
    val (n, sink) = mkNode()
    feed(n, sgt(x, z, "RL", 20, 31), sgt(z, u, "RL", 21, 31))
    val keys = sink.map(_.sgt.key).toSet
    assert(keys == Set((x, z, "RLP"), (x, u, "RLP"), (z, u, "RLP")))
    val xu = sink.find(_.sgt.key == (x, u, "RLP")).get.sgt
    assert(xu.ts == 21 && xu.exp == 31)
    assert(xu.path == List(Edge(x, z, "RL"), Edge(z, u, "RL")))
  }

  test("Propagate replaces a path segment when a larger-expiry alternative arrives (paper Ex. 9)") {
    val (n, sink) = mkNode()
    // Old path x→z→u expiring at 31, then new path x→y→u expiring at 37.
    feed(n,
      sgt(x, z, "RL", 20, 31), sgt(z, u, "RL", 21, 31),
      sgt(x, y, "RL", 25, 37), sgt(y, u, "RL", 28, 37))
    val xuResults = sink.filter(_.sgt.key == (x, u, "RLP")).map(_.sgt)
    assert(xuResults.map(_.exp).max == 37, "the improved segment must be re-emitted")
    // The materialized path of the improved result goes through y.
    assert(xuResults.last.path == List(Edge(x, y, "RL"), Edge(y, u, "RL")))
  }

  test("smaller-expiry alternatives are ignored (paper Ex. 9, t=30)") {
    val (n, sink) = mkNode()
    feed(n, sgt(x, y, "RL", 25, 37), sgt(y, u, "RL", 28, 37))
    val before = n.traversalSteps
    val emitted = sink.size
    // x→z→u would expire at 31 < 37: S-PATH must not modify (u,1) in T_x.
    feed(n, sgt(x, z, "RL", 29, 31), sgt(z, u, "RL", 30, 31))
    val xu = sink.drop(emitted).filter(_.sgt.key == (x, u, "RLP"))
    assert(xu.isEmpty, "covered segment must not re-emit (x,u)")
    assert(n.traversalSteps > before, "the new edges themselves are still processed")
  }

  test("Propagate extends expiry transitively to children") {
    val (n, sink) = mkNode()
    // Chain x→z→u→v all expiring at 31; then x→u directly until 40:
    // (u,1) improves to 40, and its child (v,1) improves to min(40, vEdge.exp).
    feed(n,
      sgt(x, z, "RL", 10, 31), sgt(z, u, "RL", 11, 31), sgt(u, v, "RL", 12, 35),
      sgt(x, u, "RL", 13, 40))
    val xv = sink.filter(_.sgt.key == (x, v, "RLP")).map(_.sgt)
    assert(xv.map(_.exp).max == 35, s"child must inherit min(40, 35), got ${xv.map(_.exp)}")
  }

  test("cycles terminate and produce self-pairs") {
    val (n, sink) = mkNode()
    feed(n, sgt(x, y, "RL", 1, 50), sgt(y, x, "RL", 2, 50))
    val keys = sink.map(_.sgt.key).toSet
    assert(keys == Set((x, y, "RLP"), (y, x, "RLP"), (x, x, "RLP"), (y, y, "RLP")))
  }

  test("direct expiry: advance drops expired subtrees without re-derivation (paper Ex. 10)") {
    val (n, sink) = mkNode()
    feed(n, sgt(x, z, "RL", 20, 31), sgt(z, u, "RL", 21, 31), sgt(x, y, "RL", 25, 37))
    val stateBefore = n.stateSize
    n.advance(31) // nodes (z,1) and (u,1) expired at 31
    assert(n.stateSize < stateBefore)
    sink.clear()
    // A new edge from z now finds no valid (x→z) segment: only z's own tree grows.
    feed(n, sgt(z, v, "RL", 32, 40))
    assert(sink.map(_.sgt.key).toSet == Set((z, v, "RLP")))
  }

  test("expired source segments are not expandable (ExpandableTrees check)") {
    val (n, sink) = mkNode()
    feed(n, sgt(x, y, "RL", 10, 20))
    sink.clear()
    // Arrives after (y,1) in T_x expired (exp=20 <= ts=25): T_x must not extend.
    feed(n, sgt(y, z, "RL", 25, 40))
    assert(sink.map(_.sgt.key).toSet == Set((y, z, "RLP")))
  }

  test("multi-state regex (a b+) tracks DFA states per vertex") {
    val (n, sink) = mkNode(Regex.parse("a b+"), "out")
    n.receive(Delta(sgt(x, y, "a", 1, 50), 1), 0)
    assert(sink.isEmpty, "a alone is not in L(a b+)")
    n.receive(Delta(sgt(y, z, "b", 2, 50), 1), 0)
    n.receive(Delta(sgt(z, u, "b", 3, 50), 1), 0)
    assert(sink.map(_.sgt.key).toSet == Set((x, z, "out"), (x, u, "out")))
  }

  test("same vertex reachable in different DFA states is kept separately") {
    val (n, sink) = mkNode(Regex.parse("a b"), "out")
    // x -a-> y -b-> x : (x,0) root, (y,1), (x,2) — result (x,x).
    feed(n, sgt(x, y, "a", 1, 50), sgt(y, x, "b", 2, 50))
    assert(sink.map(_.sgt.key).toSet == Set((x, x, "out")))
  }

  test("payload paths respect edge order") {
    val (n, sink) = mkNode(Regex.parse("(a b)+"), "out")
    feed(n, sgt(x, y, "a", 1, 50), sgt(y, z, "b", 2, 50),
            sgt(z, u, "a", 3, 50), sgt(u, v, "b", 4, 50))
    val xv = sink.find(_.sgt.key == (x, v, "out")).get.sgt
    assert(xv.path == List(Edge(x, y, "a"), Edge(y, z, "b"), Edge(z, u, "a"), Edge(u, v, "b")))
  }

  test("an interval refresh after an ancestor is re-routed carries the new witness") {
    val (n, sink) = mkNode()
    val (a, b, c) = (10L, 11L, 12L)
    // x→a→b is valid until 10. x→c→a re-routes (a,1) until 50, which
    // refreshes its child (b,1) under the same parent edge a→b.
    feed(n, sgt(x, a, "RL", 1, 10), sgt(a, b, "RL", 2, 50), sgt(x, c, "RL", 3, 50),
            sgt(c, a, "RL", 4, 50))
    val xb = sink.map(_.sgt).filter(_.key == (x, b, "RLP"))
    assert(xb.map(r => (r.ts, r.exp)) == Seq((2L, 10L), (2L, 50L)))
    assert(xb.head.path == List(Edge(x, a, "RL"), Edge(a, b, "RL")))
    // x→a expires at 10, so the refresh must not report the old path.
    assert(xb.last.path == List(Edge(x, c, "RL"), Edge(c, a, "RL"), Edge(a, b, "RL")))
    assert(xb.last.path.length == 3 && xb.last.path(1) == Edge(c, a, "RL"))
  }

  test("two fresh operators fed the same stream do the same work") {
    // Trees are iterated through hash sets; the search, and so its step
    // count and witnesses, must not depend on object identity.
    val rnd   = new scala.util.Random(7)
    val edges = (0 until 1500).map(i => sgt(rnd.nextInt(40), rnd.nextInt(40), "RL", i / 3, i / 3 + 60))
    def run(): (Long, Seq[Sgt]) = {
      val (n, sink) = mkNode()
      edges.grouped(30).zipWithIndex.foreach { case (batch, i) => n.advance(i * 10L); feed(n, batch: _*) }
      (n.traversalSteps, sink.map(_.sgt).toList)
    }
    val (steps1, out1) = run()
    val (steps2, out2) = run()
    assert(steps1 == steps2)
    assert(out1 == out2)
  }

  test("duplicate edges with extended validity coalesce in the adjacency") {
    val (n, sink) = mkNode()
    feed(n, sgt(x, y, "RL", 1, 10), sgt(x, y, "RL", 5, 20))
    val xy = sink.filter(_.sgt.key == (x, y, "RLP")).map(_.sgt)
    assert(xy.map(_.exp) == Seq(10L, 20L), "extension must be re-emitted once")
  }

  test("advance purges the coalescer so re-arriving results re-emit") {
    val (n, sink) = mkNode()
    feed(n, sgt(x, y, "RL", 1, 10))
    n.advance(10)
    sink.clear()
    feed(n, sgt(x, y, "RL", 12, 20))
    assert(sink.map(_.sgt.key).toSet == Set((x, y, "RLP")))
  }

  test("a node refreshed by Propagate survives the bucket it was first scheduled in") {
    val (n, sink) = mkNode()
    // (u,1) in T_x is created via z expiring at 31, then refreshed to 40 by x→u.
    feed(n, sgt(x, z, "RL", 20, 31), sgt(z, u, "RL", 21, 31), sgt(x, u, "RL", 25, 40))
    n.advance(31)
    sink.clear()
    feed(n, sgt(u, v, "RL", 32, 50))
    assert(sink.map(_.sgt.key).toSet == Set((u, v, "RLP"), (x, v, "RLP")))
    // The refreshed node expires at 40 and takes its new child (v,1) with it.
    n.advance(40)
    assert(n.stateSize == 2, "only T_u = {u, (v,1)} remains")
    sink.clear()
    feed(n, sgt(v, y, "RL", 41, 60))
    assert(sink.map(_.sgt.key).toSet == Set((v, y, "RLP"), (u, y, "RLP")))
  }

  test("a tree whose last child expires is removed and can be rebuilt") {
    val (n, sink) = mkNode()
    feed(n, sgt(x, y, "RL", 1, 10))
    assert(n.stateSize == 2)
    n.advance(10)
    assert(n.stateSize == 0)
    sink.clear()
    feed(n, sgt(x, y, "RL", 12, 20))
    assert(sink.map(_.sgt.key).toSet == Set((x, y, "RLP")))
    assert(n.stateSize == 2)
  }

  test("an arriving edge settles each node once, even a diamond's sink") {
    val (n, sink) = mkNode()
    val (a, b, c, d) = (10L, 11L, 12L, 13L)
    // a reaches d directly until 50 and over the longer branch a→b→c→d
    // until 40. The long branch comes later in a's adjacency, so a LIFO
    // traversal would settle d at 40 first and refresh it to 50.
    feed(n, sgt(a, d, "RL", 1, 50), sgt(a, b, "RL", 2, 40), sgt(b, c, "RL", 3, 40),
            sgt(c, d, "RL", 4, 40))
    val (steps, emitted) = (n.traversalSteps, sink.size)
    feed(n, sgt(x, a, "RL", 5, 60))
    val out = sink.drop(emitted).map(_.sgt)
    assert(out.map(_.key) == out.map(_.key).distinct, s"a pair was emitted twice: $out")
    assert(out.map(_.key).toSet == Set(a, b, c, d).map((x, _, "RLP")))
    val xd = out.find(_.trg == d).get
    assert(xd.exp == 50 && xd.path == List(Edge(x, a, "RL"), Edge(a, d, "RL")))
    // Frames popped: a (60), d (50), b (40), c (40); c's edge to d (40)
    // cannot improve d (50) and is never pushed.
    assert(n.traversalSteps - steps == 4)
  }

  test("a swap-removed adjacency entry leaves the moved entry reachable and expiring on time") {
    val (n, sink) = mkNode()
    val (a, b, c, d) = (10L, 11L, 12L, 13L)
    // y's entries in arrival order: a (exp 10), b (20), c (30), d (40).
    feed(n, sgt(y, a, "RL", 1, 10), sgt(y, b, "RL", 2, 20), sgt(y, c, "RL", 3, 30),
            sgt(y, d, "RL", 4, 40))
    def reachedThroughY(from: Long, ts: Long): Set[Long] = {
      sink.clear()
      feed(n, sgt(from, y, "RL", ts, 100))
      sink.map(_.sgt).filter(r => r.src == from && r.trg != y).map(_.trg).toSet
    }
    n.advance(10) // a goes; d moves into its slot
    assert(reachedThroughY(1000, 11) == Set(b, c, d))
    n.advance(20)
    assert(reachedThroughY(1001, 21) == Set(c, d))
    n.advance(30)
    assert(reachedThroughY(1002, 31) == Set(d))
    n.advance(40) // the moved entry expires from its new slot
    assert(reachedThroughY(1003, 41) == Set.empty)
    feed(n, sgt(y, d, "RL", 42, 70))
    assert(reachedThroughY(1004, 43) == Set(d))
  }
}
