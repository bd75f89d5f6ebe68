package repro.physical

import repro.core.{Dfa, Regex}
import repro.core.Model.Sgt
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
  * `f_agg = max` over expiry, Def. 21); parent pointers materialize the
  * actual path, making paths first-class citizens of the output.
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

  /** A tree node. A node dropped from its tree has no parent; roots have
    * none either, and never expire.
    */
  private final class TNode(v: Long, s: Int) extends TreeNode[TNode](v, s) {
    var tree: Tree = _
    var ts: Long = 0L
    var exp: Long = 0L
  }
  private type Tree = SpanningTree[TNode]

  /** An adjacency entry `src -label-> trg` (label by dense id), coalesced
    * on max expiry; `pos` is its slot in its source's [[Adj.out]].
    */
  private final class EdgeRec(val src: Long, val trg: Long, val label: Int, var ts: Long, var exp: Long) {
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
    val tree = new SpanningTree(root)
    root.tree = tree
    tree
  })
  private val coalescer  = new Coalescer
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
    val adj = adjacency.getOrElseUpdate(t.src, new Adj)
    val k   = PathForest.key(t.trg, l)
    val rec = adj.byKey.getOrNull(k)
    if (rec == null) {
      val r = new EdgeRec(t.src, t.trg, l, t.ts, t.exp)
      r.pos = adj.out.length
      adj.out += r
      adj.byKey(k) = r
      edgeExpiry.schedule(t.exp, r)
    } else {
      if (t.exp > rec.exp) rec.exp = t.exp
      if (t.ts < rec.ts) rec.ts = t.ts
    }

    // 2. Alg. S-PATH main loop: for every DFA transition on this label,
    //    every tree holding (src, s) whose segment is still valid
    //    (ExpandableTrees) gets a frame for the edge. The inverted set is
    //    iterated in place: seeding only reads it, and the search below
    //    only adds nodes to trees that already hold (src, s); removals
    //    happen only in `advance`.
    var s = 0
    while (s < dfa.nStates) {
      val q = dfa.step(s, l)
      if (q >= 0) forest.treesFrom(t.src, s).foreach { tree =>
        val un = tree(t.src, s)
        if (un.exp > t.ts)
          frontier.push(un, t.trg, q, l, math.max(t.ts, un.ts), math.min(t.exp, un.exp))
      }
      s += 1
    }
    search(now = t.ts)
  }

  /** Expand / Propagate over the frontier, widest candidate first. */
  private def search(now: Long): Unit = {
    val f = frontier
    while (f.nonEmpty) {
      val i = f.pop()
      traversalSteps += 1
      val parent  = f.parent(i)
      val tree    = parent.tree
      val v       = f.v(i)
      val s       = f.s(i)
      val candTs  = f.ts(i)
      val candExp = f.exp(i)
      val node    = tree.getOrNull(v, s)
      if (node == null) { // Alg. Expand: new leaf under `parent`.
        if (candTs < candExp) {
          val n = new TNode(v, s)
          n.tree = tree
          n.attach(parent, dfa.labels(f.label(i)))
          n.ts = candTs; n.exp = candExp
          tree.add(n)
          forest.index(v, s, tree)
          nodeExpiry.schedule(candExp, n)
          if (dfa.isFinal(s)) emitResult(tree, n, withPath = true)
          pushNeighbours(n, now)
        }
      } else if (node.exp < candExp) { // Alg. Propagate: better segment.
        // Labels come interned from `dfa.labels`, so compare references.
        val lbl = dfa.labels(f.label(i))
        val structural = (node.parent ne parent) || (node.parentEdge.label ne lbl)
        if (structural) node.attach(parent, lbl)
        node.ts = math.min(node.ts, candTs)
        node.exp = candExp // stays in its bucket; advance re-checks it
        // Pure interval refreshes re-report the same path: emit the
        // extension without re-materializing the unchanged payload.
        if (dfa.isFinal(s)) emitResult(tree, node, withPath = structural)
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
          val child = node.tree.getOrNull(rec.trg, q)
          if (child == null || child.exp < exp)
            frontier.push(node, rec.trg, q, rec.label, math.max(rec.ts, node.ts), exp)
        }
      }
      i += 1
    }
  }

  private def emitResult(tree: Tree, node: TNode, withPath: Boolean): Unit = {
    val path = if (withPath) node.path else Nil
    val out  = Sgt(tree.rootV, node.v, outLabel, node.ts, node.exp, path)
    coalescer.offer(Delta(out, 1)).foreach(emit)
  }

  /** Direct window maintenance: pops the tree nodes and adjacency
    * entries whose bucket came due. An entry refreshed since it was
    * scheduled moves to its new expiry. An expired node takes its
    * subtree with it (child expiry never exceeds parent expiry, so that
    * subtree has expired too), and a tree whose root loses its last child
    * goes. No graph traversal is needed — the point of the direct approach.
    */
  override def advance(now: Long): Unit = {
    for (n <- nodeExpiry.due(now) if n.parent != null) {
      if (n.exp > now) nodeExpiry.schedule(n.exp, n)
      else {
        dropSubtree(n)
        if (n.tree.root.children.isEmpty) forest.removeTree(n.tree)
      }
    }
    for (rec <- edgeExpiry.due(now)) {
      if (rec.exp > now) edgeExpiry.schedule(rec.exp, rec)
      else removeEdge(rec)
    }
    coalescer.purge(now)
  }

  /** Swap-remove `rec` from its source's entries: the last entry takes
    * its slot.
    */
  private def removeEdge(rec: EdgeRec): Unit = {
    val adj  = adjacency(rec.src)
    val out  = adj.out
    val last = out(out.length - 1)
    out(rec.pos) = last
    last.pos = rec.pos
    out.dropRightInPlace(1)
    adj.byKey.remove(PathForest.key(rec.trg, rec.label))
    if (out.isEmpty) adjacency.remove(rec.src)
  }

  private def dropSubtree(n: TNode): Unit = {
    n.detach()
    val stack = mutable.Stack(n)
    while (stack.nonEmpty) {
      val m = stack.pop()
      m.tree.remove(m)
      forest.unindex(m.v, m.s, m.tree)
      m.parent = null
      stack.pushAll(m.children)
      m.children.clear()
    }
  }

  /** State-size metric: total tree nodes resident in Δ-PATH. */
  override def stateSize: Long = forest.stateSize

  /** The Expand/Propagate frontier of one arriving edge: a binary
    * max-heap of frame ids keyed by candidate expiry, over frames kept in
    * parallel arrays. A frame `(parent, v, s, label)` offers `(v, s)` the
    * segment through `parent` and a `label` edge, valid on `[ts, exp)`
    * with `exp = min(edge exp, parent exp)`, fixed when it is pushed.
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
    var v            = new Array[Long](cap)
    var s            = new Array[Int](cap)
    var label        = new Array[Int](cap)
    var ts           = new Array[Long](cap)
    var exp          = new Array[Long](cap)
    private var heap = new Array[Int](cap)
    private var top  = new Array[Int](cap)
    private var frames   = 0 // pushed since the last clear
    private var heapSize = 0
    private var topSize  = 0
    private var topKey   = Long.MinValue // the last key popped off the heap

    def nonEmpty: Boolean = topSize > 0 || heapSize > 0

    def push(p: TNode, w: Long, q: Int, l: Int, fTs: Long, fExp: Long): Unit = {
      if (frames == cap) grow()
      val id = frames
      frames += 1
      parent(id) = p; v(id) = w; s(id) = q; label(id) = l; ts(id) = fTs; exp(id) = fExp
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
      frames = 0
      heapSize = 0
      topSize = 0
      topKey = Long.MinValue
    }

    private def grow(): Unit = {
      cap *= 2
      parent = java.util.Arrays.copyOf(parent, cap)
      v      = java.util.Arrays.copyOf(v, cap)
      s      = java.util.Arrays.copyOf(s, cap)
      label  = java.util.Arrays.copyOf(label, cap)
      ts     = java.util.Arrays.copyOf(ts, cap)
      exp    = java.util.Arrays.copyOf(exp, cap)
      heap   = java.util.Arrays.copyOf(heap, cap)
      top    = java.util.Arrays.copyOf(top, cap)
    }
  }
}
