package repro.physical

import repro.core.{Dfa, Regex}
import repro.core.Model.{Edge, Sgt}
import scala.collection.mutable

/** PATH under the *negative-tuple* approach — the baseline of paper
  * §7.2.2 (Differential-Dataflow-style) and the window-management scheme
  * of the authors' earlier streaming-RPQ work [62].
  *
  * The window is an evolving edge collection: expirations arrive as
  * explicit deletions from the negative-tuple WSCAN. Spanning trees keep
  * a single derivation per `(vertex, state)` node and no validity
  * metadata, so processing a deletion must (i) find the tree edges it
  * supported, (ii) mark the disconnected subtrees, (iii) traverse the
  * snapshot graph searching for alternative derivations, and (iv) remove
  * and retract what could not be re-derived — the DRed-style
  * re-derivation whose cost on cyclic graphs motivates the paper's
  * direct approach (Example 10).
  */
final class NtPathNode(regex: Regex, outLabel: String) extends Node {
  val dfa: Dfa = Dfa.fromRegex(regex)

  /** A Δ-PATH tree node `(v, s)` (Def. 22): vertex `v` reached in DFA
    * state `s`, with its parent, the graph edge that derives it from the
    * parent, and its children.
    */
  private final class TNode(val v: Long, val s: Int) {
    var parent: TNode = _
    var parentEdge: Edge = _
    /** In no particular order; a child sits at its `slot`. */
    val children = mutable.ArrayBuffer.empty[TNode]
    private var slot = -1
    var marked = false

    /** Move this node under `p`, derived through a `label` edge. */
    def attach(p: TNode, label: String): Unit = {
      detach()
      parent = p; parentEdge = Edge(p.v, v, label)
      slot = p.children.length
      p.children += this
    }

    /** Take this node out of its parent's children by swap-remove, keeping
      * its parent pointer; a no-op if it is not among them.
      */
    def detach(): Unit = if (parent != null) {
      val cs = parent.children
      if (slot >= 0 && slot < cs.length && (cs(slot) eq this)) {
        val last = cs(cs.length - 1)
        cs(slot) = last
        last.slot = slot
        cs.dropRightInPlace(1)
      }
      slot = -1
    }

    /** The path from the root, following parent pointers (cost O(length)). */
    def path: List[Edge] = {
      var cur = this
      var acc = List.empty[Edge]
      while (cur.parent != null) { acc = cur.parentEdge :: acc; cur = cur.parent }
      acc
    }
  }

  /** A spanning tree of nodes indexed by `(v, s)`. */
  private final class Tree(val root: TNode) extends PathForest.Tree {
    private val nodes = mutable.LongMap(PathForest.key(root.v, root.s) -> root)
    def rootV: Long = root.v
    def size: Int = nodes.size

    def apply(v: Long, s: Int): TNode = nodes(PathForest.key(v, s))
    def get(v: Long, s: Int): Option[TNode] = nodes.get(PathForest.key(v, s))
    def contains(v: Long, s: Int): Boolean = nodes.contains(PathForest.key(v, s))
    def add(n: TNode): Unit = nodes(PathForest.key(n.v, n.s)) = n
    def remove(n: TNode): Unit = nodes.remove(PathForest.key(n.v, n.s))
  }

  private val graph    = new WindowGraph(dfa)
  private val forest   = new PathForest[Tree](dfa, rootV => new Tree(new TNode(rootV, dfa.start)))
  private val counting = new CountingDistinct

  override def receive(d: Delta, slot: Int): Unit =
    if (d.sign == 1) insert(d.sgt) else delete(d.sgt)

  private def insert(t: Sgt): Unit =
    if (graph.insert(t)) // duplicates leave the distinct graph unchanged
      for ((s, q) <- dfa.transitionsOn(t.label); tree <- forest.treesFrom(t.src, s)) {
        val parent = tree(t.src, s)
        if (!tree.contains(t.trg, q)) expand(tree, parent, t.trg, q, t.label)
      }

  /** BFS expansion of newly reachable `(vertex, state)` nodes. */
  private def expand(tree: Tree, parent0: TNode, v0: Long, s0: Int, l0: String): Unit = {
    val queue = mutable.Queue((parent0, v0, s0, l0))
    while (queue.nonEmpty) {
      val (parent, v, s, l) = queue.dequeue()
      if (!tree.contains(v, s)) {
        traversalSteps += 1
        val node = new TNode(v, s)
        node.attach(parent, l)
        tree.add(node)
        forest.index(v, s, tree)
        if (dfa.finals.contains(s)) emitDelta(tree, node, +1)
        for ((w, q, lbl) <- graph.successors(v, s) if !tree.contains(w, q))
          queue.enqueue((node, w, q, lbl))
      }
    }
  }

  /** For every tree edge supported by the deleted graph edge: DRed-style
    * mark-and-rederive.
    */
  private def delete(t: Sgt): Unit =
    if (graph.delete(t))
      for ((s, q) <- dfa.transitionsOn(t.label); tree <- forest.treesWith(t.src, s)) {
        (tree.get(t.src, s), tree.get(t.trg, q)) match {
          case (Some(p), Some(ch)) if (ch.parent eq p) && ch.parentEdge.label == t.label =>
            rederive(tree, ch)
          case _ => ()
        }
      }

  /** Mark the subtree cut off at `cut`, search the snapshot graph for
    * alternative derivations from the unmarked region, cascade, and
    * remove (retracting results) whatever stays underivable; the tree
    * goes once only its root is left.
    */
  private def rederive(tree: Tree, cut: TNode): Unit = {
    // (ii) mark the disconnected subtree.
    val marked = mutable.ArrayBuffer.empty[TNode]
    val stack  = mutable.Stack(cut)
    while (stack.nonEmpty) {
      val n = stack.pop()
      n.marked = true
      marked += n
      stack.pushAll(n.children)
    }
    cut.detach()

    // (iii) initial scan: marked nodes with a valid derivation from an
    // unmarked node re-attach; their subtrees revalidate transitively.
    val queue = mutable.Queue.empty[TNode]
    for (m <- marked if m.marked) {
      traversalSteps += 1
      findAltParent(tree, m) match {
        case Some((p, lbl)) => reattach(m, p, lbl); queue.enqueue(m)
        case None           => ()
      }
    }
    // Cascade: a revalidated node may offer derivations to other marked
    // nodes through graph edges.
    while (queue.nonEmpty) {
      val n = queue.dequeue()
      // The remaining subtree of a revalidated node is derivable through
      // its tree edges — but only where the supporting graph edge still
      // exists (the deleted edge may support several tree edges).
      def supported(d: TNode): Boolean = graph.contains(d.parentEdge)
      val sub = mutable.Stack.empty[TNode]
      sub.pushAll(n.children.filter(c => c.marked && supported(c)))
      while (sub.nonEmpty) {
        val d = sub.pop()
        d.marked = false
        queue.enqueue(d)
        sub.pushAll(d.children.filter(c => c.marked && supported(c)))
      }
      for ((w, q, lbl) <- graph.successors(n.v, n.s)) tree.get(w, q) match {
        case Some(m) if m.marked => reattach(m, n, lbl); queue.enqueue(m)
        case _                   => ()
      }
    }

    // (iv) remove what is still marked; retract its results.
    for (m <- marked if m.marked) {
      tree.remove(m)
      m.detach()
      forest.unindex(m.v, m.s, tree)
      if (dfa.finals.contains(m.s)) emitDelta(tree, m, -1)
    }
    if (tree.size == 1) forest.removeTree(tree)
  }

  /** Dijkstra/BFS probe of the reverse adjacency for an unmarked parent
    * from which `m` is derivable ([62]'s alternative-path search).
    */
  private def findAltParent(tree: Tree, m: TNode): Option[(TNode, String)] = {
    for ((u, lbl) <- graph.inEdges(m.v)) {
      traversalSteps += 1
      for (s <- dfa.sourcesInto(lbl, m.s)) {
        tree.get(u, s) match {
          case Some(p) if !p.marked && (p ne m) => return Some((p, lbl))
          case _                                => ()
        }
      }
    }
    None
  }

  private def reattach(m: TNode, p: TNode, lbl: String): Unit = {
    m.attach(p, lbl)
    m.marked = false
  }

  private def emitDelta(tree: Tree, node: TNode, sign: Int): Unit = {
    // NT tuples carry vacuous intervals: identity must be values-only so
    // downstream operators can match retractions against insertions.
    val out = Sgt(tree.rootV, node.v, outLabel, 0L, Long.MaxValue, node.path)
    counting.offer(Delta(out, sign)).foreach(emit)
  }

  /** State-size metric: total tree nodes resident. */
  override def stateSize: Long = forest.stateSize
}
