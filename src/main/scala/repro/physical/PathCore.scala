package repro.physical

import repro.core.Dfa
import repro.core.Model.{Edge, Sgt}
import scala.collection.mutable

/** The window content of the negative-tuple PATH operators
  * ([[NtPathNode]], [[DdPathNode]]): a counted edge multiset plus
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

  def contains(e: Edge): Boolean = edgeCounts.contains((e.src, e.trg, e.label))

  /** `(w, q, label)` for every edge `v -label-> w` with `δ(s, label) = q`. */
  def successors(v: Long, s: Int): Iterator[(Long, Int, String)] =
    fwd.get(v).iterator.flatten.flatMap { case (w, l) => dfa.delta(s, l).map((w, _, l)) }

  /** `(u, label)` for every edge `u -label-> v`. */
  def inEdges(v: Long): Iterator[(Long, String)] = rev.get(v).iterator.flatten
}

/** Δ-PATH (Def. 22) of the negative-tuple PATH operators ([[NtPathNode]],
  * [[DdPathNode]]): one tree per root vertex, created when an edge leaves
  * the root in the DFA's start state, and a hash-based inverted index
  * from `(vertex, state)` to the trees holding it. Generic over each
  * operator's tree type; the operator maintains tree contents and keeps
  * the index in step.
  *
  * [[SPathNode]] keeps its own Δ-PATH over dense vertex ids, which it can
  * recycle because it only inserts between slides and expires by
  * timestamp; these operators delete tuples at arbitrary times.
  */
final class PathForest[T <: PathForest.Tree](dfa: Dfa, newTree: Long => T) {
  require(dfa.nStates <= PathForest.MaxStates, s"DFA has ${dfa.nStates} states, at most ${PathForest.MaxStates} fit a key")
  require(dfa.labels.length <= PathForest.MaxStates, s"DFA has ${dfa.labels.length} labels, at most ${PathForest.MaxStates} fit a key")

  val trees = mutable.HashMap.empty[Long, T]
  private val inverted = mutable.LongMap.empty[mutable.HashSet[T]]

  /** Trees holding `(v, s)`, copied so callers may update the index. */
  def treesWith(v: Long, s: Int): List[T] =
    inverted.get(PathForest.key(v, s)).fold(List.empty[T])(_.toList)

  /** The trees an edge out of `v` can expand from state `s`, after
    * creating `v`'s tree if `s` is the start state.
    *
    * This is the live index set, not a copy. An insertion may expand the
    * trees while iterating it: it only adds nodes to a tree of the set,
    * which already holds `(v, s)`, so the set itself never changes.
    * Removals (expiry, deletions) must use the copying [[treesWith]].
    */
  def treesFrom(v: Long, s: Int): collection.Set[T] = {
    if (s == dfa.start && !trees.contains(v)) {
      val tree = newTree(v)
      trees(v) = tree
      index(v, s, tree)
    }
    inverted.getOrElse(PathForest.key(v, s), Set.empty[T])
  }

  def index(v: Long, s: Int, tree: T): Unit =
    inverted.getOrElseUpdate(PathForest.key(v, s), mutable.HashSet.empty) += tree

  def unindex(v: Long, s: Int, tree: T): Unit = {
    val k = PathForest.key(v, s)
    inverted.get(k).foreach { set =>
      set -= tree
      if (set.isEmpty) inverted.remove(k)
    }
  }

  /** Drops `tree`, which must hold only its root. */
  def removeTree(tree: T): Unit = {
    trees.remove(tree.rootV)
    unindex(tree.rootV, dfa.start, tree)
  }

  /** State-size metric: total tree nodes resident. */
  def stateSize: Long = trees.valuesIterator.map(_.size.toLong).sum
}

object PathForest {
  /** A tree hashes as its root vertex, so the inverted index's sets of
    * trees iterate in an order fixed by the input, the same in every run;
    * equality stays identity.
    */
  trait Tree {
    def rootV: Long
    def size: Int
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
}
