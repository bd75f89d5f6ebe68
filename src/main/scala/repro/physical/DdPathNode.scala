package repro.physical

import repro.core.{Dfa, Regex}
import repro.core.Model.{Edge, Sgt}
import scala.collection.mutable

/** PATH under the Differential-Dataflow baseline of paper §7.2.2.
  *
  * DD evaluates a PATH as `base.iterate(r => distinct(r.join(edges) ++
  * base))`: every reachability tuple lives at its *minimal iteration
  * round*, and the arrangements that back `iterate`/`distinct` must be
  * re-stabilized whenever a window slide inserts or deletes edges — a
  * tuple whose minimal round changes produces churn in every affected
  * round. This operator reproduces that cost profile faithfully by
  * maintaining, per root vertex, the minimal round (BFS level in the
  * DFA-product graph) of every `(vertex, state)` tuple:
  *
  *  - edge insertion ⇒ level-decrease relaxations (cheap, monotone);
  *  - edge deletion ⇒ suspect tuples must recompute their level from
  *    in-neighbours and increases cascade (the expensive re-stabilization,
  *    including count-to-∞ rounds on cycles until tuples drop out).
  *
  * On tree-shaped inputs levels are unique and stable, so deletions stay
  * cheap — which is exactly why DD wins on LDBC's `replyOf` but loses on
  * the dense cyclic SO graph in the paper's Table 2.
  */
final class DdPathNode(regex: Regex, outLabel: String) extends Node {
  val dfa: Dfa = Dfa.fromRegex(regex)

  private final class Tree(val rootV: Long) extends PathForest.Tree {
    // Minimal round of each (v, s), keyed by `PathForest.key(v, s)`; the
    // root tuple is round 0 and pinned.
    val levels = mutable.LongMap(PathForest.key(rootV, dfa.start) -> 0)
    def size: Int = levels.size
  }

  private val graph    = new WindowGraph(dfa)
  private val forest   = new PathForest[Tree](dfa, new Tree(_))
  private val counting = new CountingDistinct

  override def receive(d: Delta, slot: Int): Unit =
    if (d.sign == 1) insert(d.sgt) else delete(d.sgt)

  private def insert(t: Sgt): Unit =
    if (graph.insert(t))
      for ((s, q) <- dfa.transitionsOn(t.label); tree <- forest.treesFrom(t.src, s))
        relax(tree, t.trg, q, tree.levels(PathForest.key(t.src, s)) + 1)

  /** Monotone level-decrease relaxation wave (DD round forward-pass). */
  private def relax(tree: Tree, v0: Long, s0: Int, cand0: Int): Unit = {
    val queue = mutable.Queue((v0, s0, cand0))
    while (queue.nonEmpty) {
      val (v, s, cand) = queue.dequeue()
      traversalSteps += 1
      val k   = PathForest.key(v, s)
      val cur = tree.levels.get(k)
      if (cur.forall(_ > cand)) {
        if (cur.isEmpty) {
          forest.index(v, s, tree)
          if (dfa.finals.contains(s)) emitDelta(tree, v, +1)
        }
        tree.levels(k) = cand
        for ((w, q, _) <- graph.successors(v, s)) queue.enqueue((w, q, cand + 1))
      }
    }
  }

  /** Every tree holding the source tuple of the deleted edge must
    * re-stabilize the target tuple (and transitively its successors).
    */
  private def delete(t: Sgt): Unit =
    if (graph.delete(t))
      for ((s, q) <- dfa.transitionsOn(t.label); tree <- forest.treesWith(t.src, s)
           if tree.levels.contains(PathForest.key(t.trg, q)))
        restabilize(tree, t.trg, q)

  /** Level-increase repair: recompute a suspect's minimal round from its
    * in-neighbours; increases cascade to successors, and tuples whose
    * level exceeds the finite-round bound drop out (count-to-∞ on
    * cycles, then retraction) — DD's expensive backward re-stabilization.
    * The tree goes once only its root is left.
    */
  private def restabilize(tree: Tree, v0: Long, s0: Int): Unit = {
    val queue = mutable.Queue((v0, s0))
    while (queue.nonEmpty) {
      val (v, s) = queue.dequeue()
      val k = PathForest.key(v, s)
      if (v != tree.rootV || s != dfa.start) {
        tree.levels.get(k) match {
          case None => ()
          case Some(cur) =>
            // A level is bounded by the number of live tuples; beyond
            // that the tuple is underivable.
            val bound = tree.levels.size
            var best  = Int.MaxValue
            for ((u, lbl) <- graph.inEdges(v); sp <- dfa.sourcesInto(lbl, s)) {
              traversalSteps += 1
              tree.levels.get(PathForest.key(u, sp)) match {
                case Some(lu) if u != v || sp != s => best = math.min(best, lu + 1)
                case _                             => ()
              }
            }
            if (best == cur) ()
            else if (best > bound) { // underivable: retract and cascade
              tree.levels.remove(k)
              forest.unindex(v, s, tree)
              if (dfa.finals.contains(s)) emitDelta(tree, v, -1)
              enqueueSuccessors(tree, v, s, queue)
            } else if (best != cur) { // round shifted: re-stabilize successors
              tree.levels(k) = best
              enqueueSuccessors(tree, v, s, queue)
            }
        }
      }
    }
    if (tree.size == 1) forest.removeTree(tree)
  }

  private def enqueueSuccessors(tree: Tree, v: Long, s: Int,
                                queue: mutable.Queue[(Long, Int)]): Unit =
    for ((w, q, _) <- graph.successors(v, s) if tree.levels.contains(PathForest.key(w, q))) {
      traversalSteps += 1
      queue.enqueue((w, q))
    }

  private def emitDelta(tree: Tree, v: Long, sign: Int): Unit = {
    // DD evaluates reachability — result payloads carry the derived edge
    // only (DD's dataflow cannot report paths, paper §7.2.2).
    val out = Sgt(tree.rootV, v, outLabel, 0L, Long.MaxValue,
                  List(Edge(tree.rootV, v, outLabel)))
    counting.offer(Delta(out, sign)).foreach(emit)
  }

  /** State-size metric: total tuples resident across all rounds. */
  override def stateSize: Long = forest.stateSize
}
