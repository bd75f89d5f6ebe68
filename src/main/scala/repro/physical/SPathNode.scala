package repro.physical

import repro.core.{Dfa, Regex}
import repro.core.Model.{Edge, Sgt}
import scala.collection.mutable

/** PATH (Def. 20) via the paper's S-PATH algorithm (§6.2) — the *direct*
  * approach: Δ-PATH spanning forests whose nodes carry validity
  * intervals, so expirations are located directly from expiry timestamps
  * and never require re-derivation traversals.
  *
  * State:
  *  - a DFA for the PATH regex (Alg. S-PATH line 1), over dense label
  *    ids; an edge whose label is outside its alphabet is dropped;
  *  - a windowed adjacency index of currently-valid input sgts, used by
  *    Expand/Propagate to traverse the snapshot graph: per source, an
  *    array of entries plus a map from `(trg, label id)` to its entry;
  *  - Δ-PATH (Def. 22): one spanning tree per discovered root vertex,
  *    with a hash-based inverted index from `(vertex, state)` pairs to
  *    the trees containing them.
  *
  * Each tree node `(v, s)` stores the path segment from the root with the
  * *largest expiry* among all equivalent segments (coalesce with
  * `f_agg = max` over expiry, Def. 21), as a [[PathCell]] that shares its
  * prefix with its parent's: every result carries its exact witness
  * path, built in O(1), making paths first-class citizens of the output.
  *
  * Set semantics (Def. 11) are kept on the trees themselves: the
  * final-state nodes of a vertex `v` in the tree of root `r` share one
  * [[Result]] entry for the pair `(r, v)`, so S-PATH needs no separate
  * coalescer.
  *
  * An arriving edge runs one Expand/Propagate search over every tree it
  * extends, visiting frames in decreasing candidate expiry (a widest-path
  * search, Pollack 1960): see [[Frontier]]. So each `(v, s)` of a tree is
  * settled by its first improving frame, once per arriving edge.
  *
  * Tree nodes and adjacency entries sit in [[ExpiryWheel]]s, scheduled
  * at the expiry they were created with; Propagate and duplicate edges
  * only ever raise an expiry, so `advance` re-checks exactly the entries
  * whose bucket came due.
  */
final class SPathNode(regex: Regex, outLabel: String) extends Node {
  val dfa: Dfa = Dfa.fromRegex(regex)

  /** A tree node. It keeps no parent or child links: its witness names
    * the edges that derive it, and expiry finds it through the wheel.
    * Roots never expire.
    */
  private final class TNode(v: Long, s: Int) extends PathNode(v, s) {
    var tree: Tree = _
    var ts: Long = 0L
    var exp: Long = 0L
    /** The path from the root that last derived this node; null at roots. */
    var witness: PathCell = _
    /** The result entry of `(tree.rootV, v)` if `s` is final, else null. */
    var result: Result = _
  }

  /** The coalesced result `(root, v)` of one tree: the interval last
    * emitted, and how many final-state nodes of `v` share the entry. Its
    * `exp` is the largest expiry emitted, so the entry is live exactly
    * while one of those nodes is.
    */
  private final class Result {
    var ts: Long  = 0L
    var exp: Long = Long.MinValue // nothing emitted yet
    var refs: Int = 0
  }

  private final class Tree(root: TNode) extends SpanningTree[TNode](root) {
    private val results = mutable.LongMap.empty[Result]

    /** The result entry of `v`, taken by one more final-state node. */
    def acquire(v: Long): Result = {
      var r = results.getOrNull(v)
      if (r == null) { r = new Result; results(v) = r }
      r.refs += 1
      r
    }

    /** Gives up a final-state node's share of the entry of `v`. */
    def release(v: Long, r: Result): Unit = {
      r.refs -= 1
      if (r.refs == 0) results.remove(v)
    }
  }

  /** An adjacency entry: a graph edge, its label's dense id and its
    * validity, coalesced on max expiry. The `Edge` is made once and shared
    * by every witness derived through it; `pos` is the entry's slot in
    * its source's [[Adj.out]].
    */
  private final class EdgeRec(val edge: Edge, val label: Int, var ts: Long, var exp: Long) {
    var pos: Int = 0
  }

  /** The valid out-edges of one source: iterated by index, deduplicated
    * on `PathForest.key(trg, label)`, removed by swap-remove.
    */
  private final class Adj {
    val out   = mutable.ArrayBuffer.empty[EdgeRec]
    val byKey = mutable.LongMap.empty[EdgeRec]
  }

  private val adjacency = mutable.LongMap.empty[Adj]
  private val forest = new PathForest[Tree](dfa, rootV => {
    val root = new TNode(rootV, dfa.start)
    root.exp = Long.MaxValue
    val tree = new Tree(root)
    root.tree = tree
    tree
  })
  private val nodeExpiry = new ExpiryWheel[TNode]
  private val edgeExpiry = new ExpiryWheel[EdgeRec]
  private val frontier   = new Frontier

  /** Operator metrics: traversal steps performed (Expand+Propagate frames
    * popped, stale ones included).
    */
  var traversalSteps: Long = 0L

  override def receive(d: Delta, slot: Int): Unit = {
    require(d.sign == 1, "S-PATH is the direct-approach operator; use NtPathNode for negative tuples")
    val t = d.sgt
    val l = dfa.labelId(t.label)
    if (l < 0) return // no DFA transition reads this label

    // 1. Maintain the windowed adjacency (coalescing on max expiry).
    val rec = addEdge(t, l)

    // 2. Alg. S-PATH main loop: for every DFA transition on this label,
    //    every tree holding (src, s) whose segment is still valid
    //    (ExpandableTrees) gets a frame for the edge, unless the frame
    //    could not improve its target. The inverted set is iterated in
    //    place: seeding only reads it, and the search below only adds
    //    nodes to trees that already hold (src, s); removals happen only
    //    in `advance`.
    var s = 0
    while (s < dfa.nStates) {
      val q = dfa.step(s, l)
      if (q >= 0) forest.treesFrom(t.src, s).foreach { tree =>
        val un = tree(t.src, s)
        if (un.exp > t.ts) {
          val exp    = math.min(t.exp, un.exp)
          val target = tree.getOrNull(t.trg, q)
          if (target == null || target.exp < exp)
            frontier.push(un, rec, q, target, math.max(t.ts, un.ts), exp)
        }
      }
      s += 1
    }
    search(now = t.ts)
  }

  /** The adjacency entry of `t` (label id `l`), created or extended. */
  private def addEdge(t: Sgt, l: Int): EdgeRec = {
    val adj = adjacency.getOrElseUpdate(t.src, new Adj)
    val k   = PathForest.key(t.trg, l)
    val rec = adj.byKey.getOrNull(k)
    if (rec != null) {
      if (t.exp > rec.exp) rec.exp = t.exp
      if (t.ts < rec.ts) rec.ts = t.ts
      return rec
    }
    val r = new EdgeRec(Edge(t.src, t.trg, dfa.labels(l)), l, t.ts, t.exp)
    r.pos = adj.out.length
    adj.out += r
    adj.byKey(k) = r
    edgeExpiry.schedule(t.exp, r)
    r
  }

  /** Expand / Propagate over the frontier, widest candidate first. */
  private def search(now: Long): Unit = {
    val f = frontier
    while (f.nonEmpty) {
      val i = f.pop()
      traversalSteps += 1
      val parent  = f.parent(i)
      val edge    = f.edge(i).edge
      val tree    = parent.tree
      val v       = edge.trg
      val s       = f.s(i)
      val candTs  = f.ts(i)
      val candExp = f.exp(i)
      // A target present at push time is still there: only `advance`
      // removes nodes.
      val node    = if (f.target(i) != null) f.target(i) else tree.getOrNull(v, s)
      if (node == null) { // Alg. Expand: new leaf under `parent`.
        if (candTs < candExp) {
          val n = new TNode(v, s)
          n.tree = tree
          n.witness = new PathCell(edge, parent.witness)
          n.ts = candTs; n.exp = candExp
          tree.add(n)
          forest.index(v, s, tree)
          nodeExpiry.schedule(candExp, n)
          if (dfa.isFinal(s)) {
            n.result = tree.acquire(v)
            emitResult(n)
          }
          pushNeighbours(n, now)
        }
      } else if (node.exp < candExp) { // Alg. Propagate: better segment.
        // The parent may have been re-routed since `node` was derived, so
        // the witness is rebuilt even when the parent edge is the same.
        node.witness = new PathCell(edge, parent.witness)
        node.ts = math.min(node.ts, candTs)
        node.exp = candExp // stays in its bucket; advance re-checks it
        if (node.result != null) emitResult(node)
        pushNeighbours(node, now)
      } // else: stale, or covered by a segment with a larger expiry
    }
    f.clear()
  }

  /** Push a frame for every currently-valid out-edge of `node.v` that the
    * DFA can take from state `node.s` (the `G_ts` traversal of Expand
    * line 8) and that would improve its target.
    */
  private def pushNeighbours(node: TNode, now: Long): Unit = {
    val adj = adjacency.getOrNull(node.v)
    if (adj == null) return
    val out = adj.out
    var i = 0
    while (i < out.length) {
      val rec = out(i)
      if (rec.exp > now) {
        val q = dfa.step(node.s, rec.label)
        if (q >= 0) {
          val exp   = math.min(node.exp, rec.exp)
          val child = node.tree.getOrNull(rec.edge.trg, q)
          if (child == null || child.exp < exp)
            frontier.push(node, rec, q, child, math.max(rec.ts, node.ts), exp)
        }
      }
      i += 1
    }
  }

  /** Emits final-state node `n`'s result, coalesced (Def. 11) with what
    * its entry already emitted, exactly as a [[Coalescer]] would: nothing
    * if the entry covers `n`'s expiry, else the interval extended when
    * the two overlap or touch, else `n`'s own interval.
    */
  private def emitResult(n: TNode): Unit = {
    val r = n.result
    if (n.exp <= r.exp) return
    r.ts = if (math.max(r.ts, n.ts) <= r.exp) math.min(r.ts, n.ts) else n.ts
    r.exp = n.exp
    emit(Delta(Sgt(n.tree.rootV, n.v, outLabel, r.ts, r.exp, n.witness), 1))
  }

  /** Direct window maintenance: pops the tree nodes and adjacency
    * entries whose bucket came due. An entry refreshed since it was
    * scheduled moves to its new expiry; an expired one goes, and a tree
    * goes with its last node but the root. An expired node's whole
    * subtree has expired too (a node's expiry never exceeds its parent's)
    * and each of its nodes sits in a bucket keyed at most at its expiry,
    * so the subtree comes due in the same `advance`, node by node. No
    * graph traversal is needed — the point of the direct approach.
    */
  override def advance(now: Long): Unit = {
    var nodes = nodeExpiry.nextDue(now)
    while (nodes != null) {
      var i = 0
      while (i < nodes.length) {
        val n = nodes(i)
        if (n.exp > now) nodeExpiry.schedule(n.exp, n) else drop(n)
        i += 1
      }
      nodes = nodeExpiry.nextDue(now)
    }
    var recs = edgeExpiry.nextDue(now)
    while (recs != null) {
      var i = 0
      while (i < recs.length) {
        val rec = recs(i)
        if (rec.exp > now) edgeExpiry.schedule(rec.exp, rec)
        else removeEdge(rec)
        i += 1
      }
      recs = edgeExpiry.nextDue(now)
    }
  }

  /** Swap-remove `rec` from its source's entries: the last entry takes
    * its slot.
    */
  private def removeEdge(rec: EdgeRec): Unit = {
    val src  = rec.edge.src
    val adj  = adjacency(src)
    val out  = adj.out
    val last = out(out.length - 1)
    out(rec.pos) = last
    last.pos = rec.pos
    out.dropRightInPlace(1)
    adj.byKey.remove(PathForest.key(rec.edge.trg, rec.label))
    if (out.isEmpty) adjacency.remove(src)
  }

  /** Removes expired node `n` from its tree, releasing its result entry,
    * and the tree once only its root is left.
    */
  private def drop(n: TNode): Unit = {
    val tree = n.tree
    tree.remove(n)
    forest.unindex(n.v, n.s, tree)
    if (n.result != null) tree.release(n.v, n.result)
    if (tree.size == 1) forest.removeTree(tree)
  }

  /** State-size metric: total tree nodes resident in Δ-PATH. */
  override def stateSize: Long = forest.stateSize

  /** The Expand/Propagate frontier of one arriving edge: a binary
    * max-heap of frame ids keyed by candidate expiry, over frames kept in
    * parallel arrays. A frame `(parent, edge, s)` offers `(edge.trg, s)`
    * the segment through `parent` and the adjacency entry `edge`, valid
    * on `[ts, exp)` with `exp = min(edge exp, parent exp)`, fixed when it
    * is pushed. It also keeps its `target` node if one existed then.
    *
    * Pops come in non-increasing `exp`: a path's expiry is the minimum
    * over its edges, so a frame pushed from a popped node never has a
    * larger key than that node, and a seed's parent outranks every
    * frame. Hence a node is improved by its first improving pop and by
    * no later frame, and the parent of a pending frame keeps the
    * `ts`/`exp` it had when it pushed the frame. Stale frames fail the
    * `node.exp < candExp` test.
    *
    * The same bound means a frame keyed at the last popped key ties the
    * heap's maximum: such frames skip the heap and wait on a stack that
    * is popped first.
    */
  private final class Frontier {
    private var cap  = 64
    var parent       = new Array[TNode](cap)
    var edge         = new Array[EdgeRec](cap)
    var target       = new Array[TNode](cap)
    var s            = new Array[Int](cap)
    var ts           = new Array[Long](cap)
    var exp          = new Array[Long](cap)
    private var heap = new Array[Int](cap)
    private var top  = new Array[Int](cap)
    private var frames   = 0 // pushed since the last clear
    private var heapSize = 0
    private var topSize  = 0
    private var topKey   = Long.MinValue // the last key popped off the heap

    def nonEmpty: Boolean = topSize > 0 || heapSize > 0

    def push(p: TNode, e: EdgeRec, q: Int, t: TNode, fTs: Long, fExp: Long): Unit = {
      if (frames == cap) grow()
      val id = frames
      frames += 1
      parent(id) = p; edge(id) = e; s(id) = q; target(id) = t; ts(id) = fTs; exp(id) = fExp
      if (fExp == topKey) {
        top(topSize) = id
        topSize += 1
        return
      }
      var i = heapSize
      heapSize += 1
      while (i > 0 && exp(heap((i - 1) >> 1)) < fExp) {
        heap(i) = heap((i - 1) >> 1)
        i = (i - 1) >> 1
      }
      heap(i) = id
    }

    /** Removes a frame of largest `exp` and returns its id, which stays
      * readable until [[clear]].
      */
    def pop(): Int = {
      if (topSize > 0) {
        topSize -= 1
        return top(topSize)
      }
      val first = heap(0)
      topKey = exp(first)
      heapSize -= 1
      if (heapSize > 0) {
        val last = heap(heapSize)
        val key  = exp(last)
        var i    = 0
        var c    = 1
        while (c < heapSize) {
          if (c + 1 < heapSize && exp(heap(c + 1)) > exp(heap(c))) c += 1
          if (exp(heap(c)) > key) { heap(i) = heap(c); i = c; c = 2 * i + 1 }
          else c = heapSize
        }
        heap(i) = last
      }
      first
    }

    def clear(): Unit = {
      java.util.Arrays.fill(parent.asInstanceOf[Array[AnyRef]], 0, frames, null)
      java.util.Arrays.fill(edge.asInstanceOf[Array[AnyRef]], 0, frames, null)
      java.util.Arrays.fill(target.asInstanceOf[Array[AnyRef]], 0, frames, null)
      frames = 0
      heapSize = 0
      topSize = 0
      topKey = Long.MinValue
    }

    private def grow(): Unit = {
      cap *= 2
      parent = java.util.Arrays.copyOf(parent, cap)
      edge   = java.util.Arrays.copyOf(edge, cap)
      target = java.util.Arrays.copyOf(target, cap)
      s      = java.util.Arrays.copyOf(s, cap)
      ts     = java.util.Arrays.copyOf(ts, cap)
      exp    = java.util.Arrays.copyOf(exp, cap)
      heap   = java.util.Arrays.copyOf(heap, cap)
      top    = java.util.Arrays.copyOf(top, cap)
    }
  }
}
