package repro.physical

import repro.core.{Dfa, Regex}
import repro.core.Model.{Edge, Sgt}
import repro.physical.PathForest.{Tree, key, stateOf, vertexOf}
import scala.collection.mutable

/** The window content of the negative-tuple PATH operators
  * ([[NegativeTuplePathNode]]): the counted forward adjacency, from each
  * source to the [[PathForest.key]] `(target, label id)` of its edges and
  * their multiplicity, and the reverse adjacency over the distinct edges.
  * `insert` and `delete` report whether the distinct graph changed;
  * duplicates only move a count. A vertex leaves with its last edge.
  *
  * [[SPathNode]] keeps its own adjacency: it coalesces duplicates on max
  * expiry instead of counting them, and expires entries by timestamp.
  */
final class WindowGraph(dfa: Dfa) {
  private val fwd = mutable.LongMap.empty[mutable.LongMap[Int]]
  private val rev = mutable.LongMap.empty[mutable.LongMap[Unit]]

  /** Adds edge `src -l-> trg` (label id `l`). Both keys are packed, and
    * so range-checked, before the window changes.
    */
  def insert(src: Long, trg: Long, l: Int): Boolean = {
    val (out, in) = (key(trg, l), key(src, l))
    val edges = fwd.getOrElseUpdate(src, mutable.LongMap.empty)
    val c     = edges.getOrElse(out, 0) + 1
    edges(out) = c
    if (c == 1) rev.getOrElseUpdate(trg, mutable.LongMap.empty)(in) = ()
    c == 1
  }

  def delete(src: Long, trg: Long, l: Int): Boolean = {
    val (out, in) = (key(trg, l), key(src, l))
    val c = fwd.get(src).flatMap(_.get(out)).getOrElse(0) - 1
    require(c >= 0, s"negative tuple for absent edge ($src, $trg, ${dfa.labels(l)})")
    if (c > 0) fwd(src)(out) = c
    else { drop(fwd, src, out); drop(rev, trg, in) }
    c == 0
  }

  private def drop[V](adj: mutable.LongMap[mutable.LongMap[V]], v: Long, k: Long): Unit = {
    val m = adj(v)
    m -= k
    if (m.isEmpty) adj -= v
  }

  /** The number of vertices with an edge in the window. */
  private[physical] def vertices: Int = (fwd.keySet ++ rev.keySet).size

  /** Calls `f(w, q)` for every edge `v -l-> w` with `δ(s, l) = q`. */
  def foreachSuccessor(v: Long, s: Int)(f: (Long, Int) => Unit): Unit =
    fwd.get(v).foreach(_.foreachKey { k =>
      val q = dfa.step(s, stateOf(k)) // the low bits hold the label id
      if (q >= 0) f(vertexOf(k), q)
    })

  /** Whether `p(u, r, l)` holds for some edge `u -l-> v` with
    * `δ(r, l) = s`; the scan stops at the first.
    */
  def existsPredecessor(v: Long, s: Int)(p: (Long, Int, Int) => Boolean): Boolean =
    rev.get(v).exists(_.keysIterator.exists { k =>
      val (u, l) = (vertexOf(k), stateOf(k))
      (0 until dfa.nStates).exists(r => dfa.step(r, l) == s && p(u, r, l))
    })

  /** Calls `f(u, r)` for every edge `u -l-> v` with `δ(r, l) = s`. */
  def foreachPredecessor(v: Long, s: Int)(f: (Long, Int) => Unit): Unit =
    existsPredecessor(v, s) { (u, r, _) => f(u, r); false }
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

  private val trees    = mutable.LongMap.empty[Tree]
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

  /** `(vertex, state)`, or [[WindowGraph]]'s `(vertex, label id)`, packed
    * into one unboxed key: the vertex in the high 48 bits (signed), the
    * DFA state or label id in the low 16.
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
  * DD's minimal iteration rounds, grow it by one insertion wave, repair
  * a deletion by one decremental BFS and emit through one
  * [[CountingDistinct]]. They differ only in what an insertion carries
  * ([[inserted]]).
  */
sealed abstract class NegativeTuplePathNode(regex: Regex, outLabel: String) extends Node {
  val dfa: Dfa = Dfa.fromRegex(regex)

  private[physical] val graph = new WindowGraph(dfa)
  private val forest          = new PathForest(dfa)
  private val counting        = new CountingDistinct

  /** An edge whose label is outside the DFA's alphabet is dropped. */
  override def receive(d: Delta, slot: Int): Unit = {
    val l = dfa.labelId(d.sgt.label)
    if (l >= 0) { if (d.sign == 1) insert(d.sgt, l) else delete(d.sgt, l) }
  }

  private def insert(t: Sgt, l: Int): Unit =
    if (graph.insert(t.src, t.trg, l)) // duplicates leave the distinct graph unchanged
      for (s <- 0 until dfa.nStates; q = dfa.step(s, l) if q >= 0; tree <- forest.treesFrom(t.src, s))
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
          if (dfa.isFinal(s)) fresh += ((v, s))
        }
        tree.levels(k) = cand
        graph.foreachSuccessor(v, s)((w, q) => queue.enqueue((w, q, cand + 1)))
      }
    }
    for ((v, s) <- fresh) emitResult(tree, v, s, +1)
  }

  /** Re-levels, per tree, the tuples `(t.trg, q)` whose level the
    * deleted edge was tight on (its source's plus one); it supported no
    * other level. Collects every start before repairing any: a repair may
    * retract the `(t.src, s)` of a later transition whose `(t.trg, q)`
    * still needs it. A tree goes once only its root is left; only a
    * re-levelled tree shrinks, as no transition enters the DFA's start.
    */
  private def delete(t: Sgt, l: Int): Unit =
    if (graph.delete(t.src, t.trg, l)) {
      val starts = for {
        s    <- 0 until dfa.nStates
        q     = dfa.step(s, l) if q >= 0
        tree <- forest.treesWith(t.src, s)
        kq    = key(t.trg, q)
        if tree.levels.get(kq).contains(tree.levels(key(t.src, s)) + 1)
      } yield (tree, kq)
      for ((tree, ks) <- starts.groupMap(_._1)(_._2)) relevel(tree, ks)
      for ((tree, _) <- starts if tree.size == 1) forest.removeTree(tree)
    }

  private val lowestLevelFirst = Ordering.by[(Int, Long), Int](-_._1)

  /** Two-phase decremental BFS on unit weights (Ramalingam & Reps,
    * J. Algorithms 1996) from the tuples `starts` of `tree`.
    */
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
        val cut = !graph.existsPredecessor(v, s) { (u, r, _) =>
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
      if (dfa.isFinal(s)) emitResult(tree, v, s, -1)
    }
  }

  /** Emits result `(tree.rootV, v)`, reached at `(v, s)`, through the
    * counting DISTINCT. Identity is values-only, with a vacuous interval,
    * so downstream operators match a retraction against its insertion.
    */
  private def emitResult(tree: Tree, v: Long, s: Int, sign: Int): Unit = {
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
      graph.existsPredecessor(cv, cs) { (u, r, lbl) =>
        val back = tree.levels.get(key(u, r)).contains(l - 1)
        if (back) { path = Edge(u, cv, dfa.labels(lbl)) :: path; cv = u; cs = r }
        back
      }
      l -= 1
    }
    path
  }
}

/** PATH under the Differential-Dataflow baseline of paper §7.2.2.
  *
  * DD evaluates a PATH as `base.iterate(r => distinct(r.join(edges) ++
  * base))` and keeps each reachability tuple at its *minimal iteration
  * round*, the BFS level this operator keeps per root in the
  * DFA-product graph. Its differences are indexed by round (McSherry et
  * al., CIDR 2013), so an insertion lowers rounds by one monotone wave,
  * and a deletion costs each affected tuple one round move or one
  * retraction, which is what the shared decremental BFS pays. Its
  * results carry the derived edge only: DD's dataflow cannot report
  * paths (§7.2.2).
  */
final class DdPathNode(regex: Regex, outLabel: String) extends NegativeTuplePathNode(regex, outLabel)
