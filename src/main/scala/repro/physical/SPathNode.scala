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
  *  - a DFA for the PATH regex (Alg. S-PATH line 1);
  *  - a windowed adjacency index of currently-valid input sgts, used by
  *    Expand/Propagate to traverse the snapshot graph;
  *  - Δ-PATH (Def. 22): one spanning tree per discovered root vertex,
  *    with a hash-based inverted index from `(vertex, state)` pairs to
  *    the trees containing them.
  *
  * Each tree node `(v, s)` stores the path segment from the root with the
  * *largest expiry* among all equivalent segments (coalesce with
  * `f_agg = max` over expiry, Def. 21); parent pointers materialize the
  * actual path, making paths first-class citizens of the output.
  *
  * Tree nodes and adjacency entries sit in [[ExpiryWheel]]s, scheduled
  * at the expiry they were created with; Propagate and duplicate edges
  * only ever raise an expiry, so `advance` re-checks exactly the entries
  * whose bucket came due.
  */
final class SPathNode(regex: Regex, outLabel: String) extends Node {
  val dfa: Dfa = Dfa.fromRegex(regex)

  /** A tree node; `tree` is null for roots, which never expire. A node
    * dropped from its tree has no parent.
    */
  private final class TNode(v: Long, s: Int, val tree: Tree) extends TreeNode[TNode](v, s) {
    var ts: Long = 0L
    var exp: Long = 0L
  }
  private type Tree = SpanningTree[TNode]

  private final class EdgeRec(val src: Long, val out: (Long, String), var ts: Long, var exp: Long)

  // Windowed adjacency: src -> (trg, label) -> validity.
  private val adjacency = mutable.HashMap.empty[Long, mutable.HashMap[(Long, String), EdgeRec]]
  private val forest = new PathForest[Tree](dfa, rootV => {
    val root = new TNode(rootV, dfa.start, null)
    root.exp = Long.MaxValue
    new SpanningTree(root)
  })
  private val coalescer  = new Coalescer
  private val nodeExpiry = new ExpiryWheel[TNode]
  private val edgeExpiry = new ExpiryWheel[EdgeRec]

  /** Operator metrics: traversal steps performed (Expand+Propagate). */
  var traversalSteps: Long = 0L

  override def receive(d: Delta, slot: Int): Unit = {
    require(d.sign == 1, "S-PATH is the direct-approach operator; use NtPathNode for negative tuples")
    val t = d.sgt
    // 1. Maintain the windowed adjacency (coalescing on max expiry).
    val out = (t.trg, t.label)
    val rec = adjacency.getOrElseUpdate(t.src, mutable.HashMap.empty).getOrElseUpdate(out, {
      val r = new EdgeRec(t.src, out, t.ts, t.exp)
      edgeExpiry.schedule(t.exp, r)
      r
    })
    if (t.exp > rec.exp) rec.exp = t.exp
    if (t.ts < rec.ts) rec.ts = t.ts

    // 2. Alg. S-PATH main loop: for every DFA transition on this label.
    for ((s, q) <- dfa.transitionsOn(t.label); tree <- forest.treesFrom(t.src, s)) {
      val un = tree(t.src, s)
      if (un.exp > t.ts) // ExpandableTrees: ignore expired segments
        process(tree, un, t.trg, q, t.ts, t.exp, t.label, now = t.ts)
    }
  }

  /** Expand / Propagate driver (iterative; graphs are cyclic and deep). */
  private def process(tree: Tree, parent0: TNode, v0: Long, s0: Int,
                      eTs0: Long, eExp0: Long, lbl0: String, now: Long): Unit = {
    val stack = mutable.Stack((parent0, v0, s0, eTs0, eExp0, lbl0))
    while (stack.nonEmpty) {
      val (parent, v, s, eTs, eExp, lbl) = stack.pop()
      traversalSteps += 1
      val candTs  = math.max(eTs, parent.ts)
      val candExp = math.min(eExp, parent.exp)
      tree.get(v, s) match {
        case None => // Alg. Expand: new leaf under `parent`.
          if (candTs < candExp) {
            val node = new TNode(v, s, tree)
            node.attach(parent, lbl)
            node.ts = candTs; node.exp = candExp
            tree.add(node)
            forest.index(v, s, tree)
            nodeExpiry.schedule(candExp, node)
            if (dfa.finals.contains(s)) emitResult(tree, node)
            pushNeighbours(tree, node, stack, now)
          }
        case Some(node) if node.exp < candExp => // Alg. Propagate: better segment.
          val structural = (node.parent ne parent) ||
            node.parentEdge.src != parent.v || node.parentEdge.label != lbl
          if (structural) node.attach(parent, lbl)
          node.ts = math.min(node.ts, candTs)
          node.exp = candExp // stays in its bucket; advance re-checks it
          // Pure interval refreshes re-report the same path: emit the
          // extension without re-materializing the unchanged payload.
          if (dfa.finals.contains(s)) emitResult(tree, node, withPath = structural)
          pushNeighbours(tree, node, stack, now)
        case _ => () // already covered by a segment with a larger expiry
      }
    }
  }

  /** Enumerate currently-valid out-edges of `node.v` that the DFA can
    * take from state `node.s` (the `G_ts` traversal of Expand line 8).
    */
  private def pushNeighbours(tree: Tree, node: TNode,
                             stack: mutable.Stack[(TNode, Long, Int, Long, Long, String)],
                             now: Long): Unit =
    for {
      ((w, lbl), rec) <- adjacency.getOrElse(node.v, mutable.HashMap.empty)
      if rec.exp > now
      q <- dfa.delta(node.s, lbl)
    } {
      val worth = tree.get(w, q) match {
        case None        => true
        case Some(child) => child.exp < math.min(node.exp, rec.exp)
      }
      if (worth) stack.push((node, w, q, rec.ts, rec.exp, lbl))
    }

  private def emitResult(tree: Tree, node: TNode, withPath: Boolean = true): Unit = {
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
      else {
        val m = adjacency(rec.src)
        m.remove(rec.out)
        if (m.isEmpty) adjacency.remove(rec.src)
      }
    }
    coalescer.purge(now)
  }

  private def dropSubtree(n: TNode): Unit = {
    n.parent.children -= n
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
}
