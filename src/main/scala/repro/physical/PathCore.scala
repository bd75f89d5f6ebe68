package repro.physical

import repro.core.{Dfa, Regex}
import repro.core.Model.{Edge, Sgt}
import repro.physical.PathForest.{Tree, key, stateOf, vertexOf}
import scala.collection.mutable

/** The window content of the negative-tuple PATH operators
  * ([[NegativeTuplePathNode]]): a counted edge multiset plus
  * forward/reverse adjacency over the distinct edges present. `insert`
  * and `delete` report whether the distinct graph changed; duplicates
  * only move a count.
  *
  * [[SPathNode]] keeps its own adjacency: it coalesces duplicates on max
  * expiry instead of counting them, and expires entries by timestamp.
  */
final class WindowGraph(dfa: Dfa) {
  private val edgeCounts = mutable.HashMap.empty[(Long, Long, String), Int]
  private val fwd = mutable.HashMap.empty[Long, mutable.HashSet[(Long, String)]]
  private val rev = mutable.HashMap.empty[Long, mutable.HashSet[(Long, String)]]

  def insert(t: Sgt): Boolean = {
    val k = (t.src, t.trg, t.label)
    val c = edgeCounts.getOrElse(k, 0) + 1
    edgeCounts(k) = c
    if (c > 1) return false
    fwd.getOrElseUpdate(t.src, mutable.HashSet.empty) += ((t.trg, t.label))
    rev.getOrElseUpdate(t.trg, mutable.HashSet.empty) += ((t.src, t.label))
    true
  }

  def delete(t: Sgt): Boolean = {
    val k = (t.src, t.trg, t.label)
    val c = edgeCounts.getOrElse(k, 0) - 1
    require(c >= 0, s"negative tuple for absent edge $k")
    if (c > 0) { edgeCounts(k) = c; return false }
    edgeCounts.remove(k)
    fwd.get(t.src).foreach(_ -= ((t.trg, t.label)))
    rev.get(t.trg).foreach(_ -= ((t.src, t.label)))
    true
  }

  // δ and δ⁻¹ by label id, so the scans below make no tuple-keyed lookups.
  private val nStates = dfa.nStates
  private val sourcesOf: Array[Array[Int]] = Array.tabulate(dfa.labels.length * nStates) { i =>
    dfa.sourcesInto(dfa.labels(i / nStates), i % nStates).toArray
  }

  /** Calls `f(w, q)` for every edge `v -l-> w` with `δ(s, l) = q`. */
  def foreachSuccessor(v: Long, s: Int)(f: (Long, Int) => Unit): Unit =
    fwd.get(v).foreach(_.foreach { case (w, l) =>
      val id = dfa.labelId(l)
      val q  = if (id < 0) -1 else dfa.step(s, id)
      if (q >= 0) f(w, q)
    })

  /** Whether `p(u, r)` holds for some edge `u -l-> v` with `δ(r, l) = s`;
    * the scan stops at the first.
    */
  def existsPredecessor(v: Long, s: Int)(p: (Long, Int) => Boolean): Boolean =
    rev.get(v).exists(_.exists { case (u, l) =>
      val id = dfa.labelId(l)
      id >= 0 && sourcesOf(id * nStates + s).exists(r => p(u, r))
    })

  /** Calls `f(u, r)` for every edge `u -l-> v` with `δ(r, l) = s`. */
  def foreachPredecessor(v: Long, s: Int)(f: (Long, Int) => Unit): Unit =
    existsPredecessor(v, s) { (u, r) => f(u, r); false }

  /** `(u, label)` for every edge `u -label-> v`. */
  def inEdges(v: Long): Iterator[(Long, String)] = rev.get(v).iterator.flatten
}

/** Δ-PATH (Def. 22) of the negative-tuple PATH operators: one tree per
  * root vertex, created when an edge leaves the root in the DFA's start
  * state, holding the BFS level of every `(vertex, state)` it reaches in
  * the DFA-product graph; and a hash-based inverted index from
  * `(vertex, state)` to the trees holding it. The operator maintains the
  * levels and keeps the index in step.
  *
  * [[SPathNode]] keeps its own Δ-PATH over dense vertex ids, which it can
  * recycle because it only inserts between slides and expires by
  * timestamp; these operators delete tuples at arbitrary times.
  */
final class PathForest(dfa: Dfa) {
  require(dfa.nStates <= PathForest.MaxStates, s"DFA has ${dfa.nStates} states, at most ${PathForest.MaxStates} fit a key")
  require(dfa.labels.length <= PathForest.MaxStates, s"DFA has ${dfa.labels.length} labels, at most ${PathForest.MaxStates} fit a key")

  val trees = mutable.HashMap.empty[Long, Tree]
  private val inverted = mutable.LongMap.empty[mutable.HashSet[Tree]]

  /** Trees holding `(v, s)`, copied so callers may update the index. */
  def treesWith(v: Long, s: Int): List[Tree] =
    inverted.get(key(v, s)).fold(List.empty[Tree])(_.toList)

  /** The trees an edge out of `v` can expand from state `s`, after
    * creating `v`'s tree if `s` is the start state.
    *
    * This is the live index set, not a copy. An insertion may expand the
    * trees while iterating it: it only adds tuples to a tree of the set,
    * which already holds `(v, s)`, so the set itself never changes.
    * Removals (deletions) must use the copying [[treesWith]].
    */
  def treesFrom(v: Long, s: Int): collection.Set[Tree] = {
    if (s == dfa.start && !trees.contains(v)) {
      val tree = new Tree(v, dfa.start)
      trees(v) = tree
      index(v, s, tree)
    }
    inverted.getOrElse(key(v, s), Set.empty[Tree])
  }

  def index(v: Long, s: Int, tree: Tree): Unit =
    inverted.getOrElseUpdate(key(v, s), mutable.HashSet.empty) += tree

  def unindex(v: Long, s: Int, tree: Tree): Unit = {
    val k = key(v, s)
    inverted.get(k).foreach { set =>
      set -= tree
      if (set.isEmpty) inverted.remove(k)
    }
  }

  /** Drops `tree`, which must hold only its root. */
  def removeTree(tree: Tree): Unit = {
    trees.remove(tree.rootV)
    unindex(tree.rootV, dfa.start, tree)
  }

  /** State-size metric: total tuples resident. */
  def stateSize: Long = trees.valuesIterator.map(_.size.toLong).sum
}

object PathForest {
  /** The tree of root vertex `rootV`: the level of each `(v, s)` it holds,
    * keyed by [[key]], with the root tuple pinned at level 0. It hashes as
    * its root vertex, so the inverted index's sets of trees iterate in an
    * order fixed by the input, the same in every run; equality stays
    * identity.
    */
  final class Tree(val rootV: Long, start: Int) {
    val levels = mutable.LongMap(key(rootV, start) -> 0)
    def size: Int = levels.size
    override def hashCode: Int = java.lang.Long.hashCode(rootV)
  }

  private val StateBits = 16
  private val MaxStates = 1 << StateBits

  /** `(vertex, state)` packed into one unboxed key: the vertex in the
    * high 48 bits (signed), the DFA state in the low 16.
    */
  def key(v: Long, s: Int): Long = {
    require((v << StateBits >> StateBits) == v, s"vertex id $v does not fit in ${64 - StateBits} bits")
    (v << StateBits) | s
  }

  def vertexOf(k: Long): Long = k >> StateBits
  def stateOf(k: Long): Int   = (k & (MaxStates - 1)).toInt
}

/** PATH under negative tuples (paper §6.3, and the DD baseline of
  * §7.2.2): the window is an evolving edge collection whose expirations
  * arrive as explicit deletions from the negative-tuple WSCAN. Both
  * operators keep the [[PathForest]] of per-root BFS levels, which are
  * DD's minimal iteration rounds, grow it by one insertion wave and emit
  * through one [[CountingDistinct]]. They differ in two hooks: what an
  * insertion carries ([[inserted]]) and how a deletion is repaired
  * ([[repair]]).
  */
sealed abstract class NegativeTuplePathNode(regex: Regex, outLabel: String) extends Node {
  val dfa: Dfa = Dfa.fromRegex(regex)

  protected val graph  = new WindowGraph(dfa)
  protected val forest = new PathForest(dfa)
  private val counting = new CountingDistinct

  /** A tuple `(v, q)` of `tree` that the deleted edge derived from a
    * tuple of `tree`; `tight` if its level was that tuple's plus one.
    */
  protected final class Start(val tree: Tree, val v: Long, val q: Int, val tight: Boolean)

  override def receive(d: Delta, slot: Int): Unit =
    if (d.sign == 1) insert(d.sgt) else delete(d.sgt)

  private def insert(t: Sgt): Unit =
    if (graph.insert(t)) // duplicates leave the distinct graph unchanged
      for ((s, q) <- dfa.transitionsOn(t.label); tree <- forest.treesFrom(t.src, s))
        relax(tree, t.trg, q, tree.levels(key(t.src, s)) + 1)

  /** Monotone level-decrease wave (DD's forward pass). New final tuples
    * emit once it has settled, so a witness reads settled levels.
    */
  private def relax(tree: Tree, v0: Long, s0: Int, cand0: Int): Unit = {
    val queue = mutable.Queue((v0, s0, cand0))
    val fresh = mutable.ArrayBuffer.empty[(Long, Int)]
    while (queue.nonEmpty) {
      val (v, s, cand) = queue.dequeue()
      traversalSteps += 1
      val k   = key(v, s)
      val cur = tree.levels.get(k)
      if (cur.forall(_ > cand)) {
        if (cur.isEmpty) {
          forest.index(v, s, tree)
          if (dfa.finals.contains(s)) fresh += ((v, s))
        }
        tree.levels(k) = cand
        graph.foreachSuccessor(v, s)((w, q) => queue.enqueue((w, q, cand + 1)))
      }
    }
    for ((v, s) <- fresh) emitResult(tree, v, s, +1)
  }

  /** Collects every start before repairing any: a repair may retract the
    * `(t.src, s)` of a later transition whose `(t.trg, q)` still needs it.
    * A tree goes once only its root is left.
    */
  private def delete(t: Sgt): Unit =
    if (graph.delete(t)) {
      val starts = for {
        (s, q) <- dfa.transitionsOn(t.label)
        tree   <- forest.treesWith(t.src, s)
        lq     <- tree.levels.get(key(t.trg, q))
      } yield new Start(tree, t.trg, q, lq == tree.levels(key(t.src, s)) + 1)
      repair(starts)
      for (st <- starts if st.tree.size == 1) forest.removeTree(st.tree)
    }

  /** Two-phase decremental BFS on unit weights (Ramalingam & Reps,
    * J. Algorithms 1996), once per tree over the starts where the deleted
    * edge was tight; elsewhere it supported no level.
    */
  protected def repair(starts: Seq[Start]): Unit =
    for ((tree, ks) <- starts.filter(_.tight).groupMap(_.tree)(st => key(st.v, st.q)))
      relevel(tree, ks)

  private val lowestLevelFirst = Ordering.by[(Int, Long), Int](-_._1)

  private def relevel(tree: Tree, starts: Seq[Long]): Unit = {
    // Phase 1, in level order: the affected set, the tuples left with no
    // in-neighbour one level lower outside it. Entries are (level, key);
    // `affected` holds each checked key's verdict.
    val byLevel  = mutable.PriorityQueue.empty[(Int, Long)](lowestLevelFirst)
    val affected = mutable.LongMap.empty[Boolean]
    for (k <- starts) byLevel += ((tree.levels(k), k))
    while (byLevel.nonEmpty) {
      val (l, k) = byLevel.dequeue()
      if (!affected.contains(k)) {
        val (v, s) = (vertexOf(k), stateOf(k))
        val cut = !graph.existsPredecessor(v, s) { (u, r) =>
          traversalSteps += 1
          val ku = key(u, r)
          tree.levels.get(ku).contains(l - 1) && !affected.getOrElse(ku, false)
        }
        affected(k) = cut
        if (cut) graph.foreachSuccessor(v, s) { (w, q) =>
          val kw = key(w, q)
          if (tree.levels.get(kw).contains(l + 1)) byLevel += ((l + 1, kw))
        }
      }
    }
    // Phase 2, in increasing level order from the set's boundary: the
    // new level of each affected tuple; what it does not reach goes.
    val open  = mutable.LongMap.empty[Int]
    val queue = mutable.PriorityQueue.empty[(Int, Long)](lowestLevelFirst)
    for ((k, true) <- affected) {
      var best = Int.MaxValue
      graph.foreachPredecessor(vertexOf(k), stateOf(k)) { (u, r) =>
        traversalSteps += 1
        val ku = key(u, r)
        if (!affected.getOrElse(ku, false)) tree.levels.get(ku).foreach(lu => best = math.min(best, lu + 1))
      }
      open(k) = best
      if (best < Int.MaxValue) queue += ((best, k))
    }
    while (queue.nonEmpty) {
      val (l, k) = queue.dequeue()
      if (open.get(k).contains(l)) {
        open.remove(k)
        tree.levels(k) = l
        graph.foreachSuccessor(vertexOf(k), stateOf(k)) { (w, q) =>
          traversalSteps += 1
          val kw = key(w, q)
          if (open.get(kw).exists(_ > l + 1)) { open(kw) = l + 1; queue += ((l + 1, kw)) }
        }
      }
    }
    for (k <- open.keysIterator) {
      val (v, s) = (vertexOf(k), stateOf(k))
      tree.levels.remove(k)
      forest.unindex(v, s, tree)
      if (dfa.finals.contains(s)) emitResult(tree, v, s, -1)
    }
  }

  /** Emits result `(tree.rootV, v)`, reached at `(v, s)`, through the
    * counting DISTINCT. Identity is values-only, with a vacuous interval,
    * so downstream operators match a retraction against its insertion.
    */
  protected final def emitResult(tree: Tree, v: Long, s: Int, sign: Int): Unit = {
    val out = Sgt(tree.rootV, v, outLabel, 0L, Long.MaxValue, List(Edge(tree.rootV, v, outLabel)))
    counting.offer(Delta(out, sign)).foreach(d => emit(if (sign == 1) inserted(tree, s, d) else d))
  }

  /** An insertion `d` of the result reached at `(d.sgt.trg, s)`, as it
    * leaves the operator. Here its payload is the derived edge, which is
    * also what every retraction carries.
    */
  protected def inserted(tree: Tree, s: Int, d: Delta): Delta = d

  /** State-size metric: total tuples resident across all trees. */
  override def stateSize: Long = forest.stateSize
}

/** PATH under the *negative-tuple* approach: the window-management scheme
  * of the authors' earlier streaming-RPQ work [62], whose deletion cost on
  * cyclic graphs motivates the paper's direct approach (Example 10).
  * A deletion is repaired by the shared decremental BFS, and every
  * inserted result carries a shortest witness path.
  */
final class NtPathNode(regex: Regex, outLabel: String) extends NegativeTuplePathNode(regex, outLabel) {

  override protected def inserted(tree: Tree, s: Int, d: Delta): Delta =
    Delta(d.sgt.copy(path = witness(tree, d.sgt.trg, s)), 1)

  /** A shortest path from the root to `(v, s)`: walks back through
    * in-neighbours one level lower, which settled levels always offer.
    */
  private def witness(tree: Tree, v: Long, s: Int): List[Edge] = {
    var (cv, cs, l) = (v, s, tree.levels(key(v, s)))
    var path = List.empty[Edge]
    while (l > 0) {
      val (u, lbl, sp) = graph.inEdges(cv).flatMap { case (u, lbl) =>
        dfa.sourcesInto(lbl, cs).iterator.map((u, lbl, _))
      }.find { case (u, _, sp) => tree.levels.get(key(u, sp)).contains(l - 1) }.get
      path = Edge(u, cv, lbl) :: path
      cv = u; cs = sp; l -= 1
    }
    path
  }
}

/** PATH under the Differential-Dataflow baseline of paper §7.2.2.
  *
  * DD evaluates a PATH as `base.iterate(r => distinct(r.join(edges) ++
  * base))`: every reachability tuple lives at its *minimal iteration
  * round*, and the arrangements that back `iterate`/`distinct` must be
  * re-stabilized whenever a window slide inserts or deletes edges — a
  * tuple whose minimal round changes produces churn in every affected
  * round. This operator reproduces that cost profile by keeping, per root
  * vertex, the minimal round (BFS level in the DFA-product graph) of
  * every `(vertex, state)` tuple:
  *
  *  - edge insertion ⇒ level-decrease relaxations (cheap, monotone);
  *  - edge deletion ⇒ suspect tuples must recompute their level from
  *    in-neighbours and increases cascade (the expensive re-stabilization,
  *    including count-to-∞ rounds on cycles until tuples drop out).
  *
  * On tree-shaped inputs levels are unique and stable, so deletions stay
  * cheap — which is exactly why DD wins on LDBC's `replyOf` but loses on
  * the dense cyclic SO graph in the paper's Table 2. Its results carry the
  * derived edge only: DD's dataflow cannot report paths (§7.2.2).
  */
final class DdPathNode(regex: Regex, outLabel: String) extends NegativeTuplePathNode(regex, outLabel) {

  /** Every tree holding the source tuple of the deleted edge must
    * re-stabilize the target tuple (and transitively its successors).
    */
  override protected def repair(starts: Seq[Start]): Unit =
    for (st <- starts) restabilize(st.tree, st.v, st.q)

  /** Level-increase repair: recompute a suspect's minimal round from its
    * in-neighbours; increases cascade to successors, and tuples whose
    * level exceeds the finite-round bound drop out (count-to-∞ on
    * cycles, then retraction) — DD's expensive backward re-stabilization.
    */
  private def restabilize(tree: Tree, v0: Long, s0: Int): Unit = {
    val queue = mutable.Queue((v0, s0))
    while (queue.nonEmpty) {
      val (v, s) = queue.dequeue()
      val k = key(v, s)
      if (v != tree.rootV || s != dfa.start) {
        tree.levels.get(k) match {
          case None => ()
          case Some(cur) =>
            // A level is bounded by the number of live tuples; beyond
            // that the tuple is underivable.
            val bound = tree.levels.size
            var best  = Int.MaxValue
            graph.foreachPredecessor(v, s) { (u, sp) =>
              traversalSteps += 1
              tree.levels.get(key(u, sp)) match {
                case Some(lu) if u != v || sp != s => best = math.min(best, lu + 1)
                case _                             => ()
              }
            }
            if (best == cur) ()
            else if (best > bound) { // underivable: retract and cascade
              tree.levels.remove(k)
              forest.unindex(v, s, tree)
              if (dfa.finals.contains(s)) emitResult(tree, v, s, -1)
              enqueueSuccessors(tree, v, s, queue)
            } else if (best != cur) { // round shifted: re-stabilize successors
              tree.levels(k) = best
              enqueueSuccessors(tree, v, s, queue)
            }
        }
      }
    }
  }

  private def enqueueSuccessors(tree: Tree, v: Long, s: Int,
                                queue: mutable.Queue[(Long, Int)]): Unit =
    graph.foreachSuccessor(v, s) { (w, q) =>
      if (tree.levels.contains(key(w, q))) {
        traversalSteps += 1
        queue.enqueue((w, q))
      }
    }
}
