package repro.physical

import repro.core.Dfa
import repro.core.Model.{Edge, Sgt}
import scala.collection.{immutable, mutable}

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

/** A Δ-PATH tree node `(v, s)` (Def. 22): vertex `v` reached in DFA
  * state `s`.
  */
abstract class PathNode(val v: Long, val s: Int)

/** A Δ-PATH tree node with its parent, the graph edge that derives it
  * from the parent, and its children.
  */
abstract class TreeNode[N <: TreeNode[N]](v: Long, s: Int) extends PathNode(v, s) { self: N =>
  var parent: N = _
  var parentEdge: Edge = _
  /** In no particular order; a child sits at its `slot`. */
  val children = mutable.ArrayBuffer.empty[N]
  private var slot = -1

  /** Move this node under `p`, derived through a `label` edge. */
  def attach(p: N, label: String): Unit = {
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
    var cur: N = this
    var acc = List.empty[Edge]
    while (cur.parent != null) { acc = cur.parentEdge :: acc; cur = cur.parent }
    acc
  }
}

/** An immutable edge path stored last edge first: a cell holds the last
  * edge and the path before it, so a path extended by one edge is one
  * new cell that shares the whole prefix (a persistent list; Driscoll et
  * al., JCSS 1989). Building it costs O(1), never O(length). As a `Seq`
  * it reads root-first and equals any `Seq` of the same edges.
  */
final class PathCell(override val last: Edge, val prefix: PathCell) extends immutable.AbstractSeq[Edge] {
  override val length: Int = if (prefix == null) 1 else prefix.length + 1

  def apply(i: Int): Edge = {
    if (i < 0 || i >= length) throw new IndexOutOfBoundsException(s"$i is out of bounds (min 0, max ${length - 1})")
    var c = this
    var k = length - 1
    while (k > i) { c = c.prefix; k -= 1 }
    c.last
  }

  def iterator: Iterator[Edge] = {
    val edges = new Array[Edge](length)
    var c = this
    var i = length - 1
    while (c != null) { edges(i) = c.last; c = c.prefix; i -= 1 }
    edges.iterator
  }
}

/** A spanning tree of nodes indexed by `(v, s)`. */
class SpanningTree[N <: PathNode](val root: N) extends PathForest.Tree {
  private val nodes = mutable.LongMap(PathForest.key(root.v, root.s) -> root)
  def rootV: Long = root.v
  def size: Int = nodes.size

  def apply(v: Long, s: Int): N = nodes(PathForest.key(v, s))
  def get(v: Long, s: Int): Option[N] = nodes.get(PathForest.key(v, s))
  def contains(v: Long, s: Int): Boolean = nodes.contains(PathForest.key(v, s))
  def add(n: N): Unit = nodes(PathForest.key(n.v, n.s)) = n
  def remove(n: N): Unit = nodes.remove(PathForest.key(n.v, n.s))
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
