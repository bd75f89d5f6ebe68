package repro.physical

import repro.core.{Dfa, Regex}
import repro.core.Model.{Edge, Sgt}
import java.util.Arrays
import scala.collection.{immutable, mutable}

/** PATH (Def. 20) via the paper's S-PATH algorithm (§6.2) — the *direct*
  * approach: Δ-PATH spanning forests whose nodes carry validity
  * intervals, so expirations are located directly from expiry timestamps
  * and never require re-derivation traversals.
  *
  * State, over dense vertex ids (vids) that the operator assigns itself:
  *  - a DFA for the PATH regex (Alg. S-PATH line 1), over dense label
  *    ids; an edge whose label is outside its alphabet is dropped;
  *  - the vid of every vertex that a live adjacency entry touches, with
  *    a count of those entries; a vid is recycled once its count drops
  *    to 0;
  *  - a windowed adjacency index of currently-valid input sgts, used by
  *    Expand/Propagate to traverse the snapshot graph: per source vid, an
  *    array of entries plus a map from `(trg vid, label id)` to its entry;
  *  - Δ-PATH (Def. 22): one spanning tree per root vid, each holding its
  *    nodes in a table on the dense key `vid * nStates + s`, and an
  *    inverted index from each dense key to the nodes at `(v, s)` across
  *    all trees.
  *
  * Every probe of the search is thus an array index. A tree's table is
  * sized by the tree, never by the number of vertices, so memory stays
  * O(live nodes + live vertices).
  *
  * Recycling a vid is safe because S-PATH only inserts between
  * `advance`s and expires by timestamp: `advance` drops nodes before
  * adjacency entries, and a node's expiry never exceeds the expiry of
  * the entry that last derived it (entries coalesce on max expiry). So
  * when the last entry touching a vertex expires, none of that vertex's
  * nodes is left, and a new vertex that takes the vid inherits nothing.
  *
  * Each tree node `(v, s)` stores the path segment from the root with the
  * *largest expiry* among all equivalent segments (coalesce with
  * `f_agg = max` over expiry, Def. 21), as a [[PathCell]] that shares its
  * prefix with its parent's: every result carries its exact witness
  * path, built in O(1), making paths first-class citizens of the output.
  *
  * Set semantics (Def. 11) are kept on the trees themselves: the
  * final-state nodes of a vertex `v` in the tree of root `r` share one
  * [[Coalesced]] entry for the pair `(r, v)`, the rule the [[Coalescer]]
  * applies, so S-PATH needs no separate coalescer.
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
  private val nStates = dfa.nStates
  private val nLabels = dfa.labels.length
  private val finals  = (0 until nStates).filter(dfa.isFinal).toArray
  private final val MinTable = 4 // slots of a tree's node table, at least

  /** A tree node at vertex `v` (vid `vid`) in DFA state `s`. It keeps no
    * parent or child links: its witness names the edges that derive it,
    * and expiry finds it through the wheel. Roots never expire.
    */
  private final class TNode(val v: Long, val s: Int, val vid: Int, val tree: Tree) {
    /** The dense key `(vid, s)`. */
    val key: Int = vid * nStates + s
    var ts: Long = 0L
    var exp: Long = 0L
    /** The path from the root that last derived this node; null at roots. */
    var witness: PathCell = _
    /** The result entry of `(tree.rootV, v)` if `s` is final, else null. */
    var result: Coalesced = _
    /** This node's slot in the inverted index's list at `key`. */
    var slot: Int = 0
  }

  /** The spanning tree of root `(rootV, start)`. Its nodes sit in an
    * open-addressing table on their dense key: identity hash
    * (`key & mask`), linear probing, load at most ½, and backward-shift
    * deletion (Knuth, TAOCP vol. 3, §6.4, Algorithm R), so no tombstones
    * build up. A tree that is dense in the vid space is in effect a
    * direct-mapped array. The table doubles above load ½ and halves
    * below ⅛, so it is sized by the tree, never by the vertex count.
    */
  private final class Tree(rootVid: Int, val rootV: Long) {
    private var table = new Array[TNode](MinTable)
    var size: Int = 0
    val root = new TNode(rootV, dfa.start, rootVid, this)
    root.exp = Long.MaxValue
    add(root)

    def capacity: Int = table.length

    /** The node with dense key `key`, or null. */
    def get(key: Int): TNode = {
      val t    = table
      val mask = t.length - 1
      var i    = key & mask
      var n    = t(i)
      while (n != null && n.key != key) { i = (i + 1) & mask; n = t(i) }
      n
    }

    def add(n: TNode): Unit = {
      if (2 * (size + 1) > table.length) rehash(2 * table.length)
      place(table, n)
      size += 1
    }

    def remove(n: TNode): Unit = {
      val t    = table
      val mask = t.length - 1
      var hole = n.key & mask
      while (t(hole) ne n) hole = (hole + 1) & mask
      // Algorithm R: a later node of the probe run moves into the hole
      // unless its home slot lies cyclically in (hole, j].
      t(hole) = null
      var j = (hole + 1) & mask
      var m = t(j)
      while (m != null) {
        val home = m.key & mask
        val stays = if (hole <= j) hole < home && home <= j else hole < home || home <= j
        if (!stays) { t(hole) = m; t(j) = null; hole = j }
        j = (j + 1) & mask
        m = t(j)
      }
      size -= 1
      if (8 * size < t.length && t.length > MinTable) rehash(t.length / 2)
    }

    private def place(t: Array[TNode], n: TNode): Unit = {
      val mask = t.length - 1
      var i    = n.key & mask
      while (t(i) != null) i = (i + 1) & mask
      t(i) = n
    }

    private def rehash(cap: Int): Unit = {
      val old = table
      table = new Array[TNode](cap)
      var i = 0
      while (i < old.length) { if (old(i) != null) place(table, old(i)); i += 1 }
    }
  }

  /** An adjacency entry: a graph edge, the vids of its ends, its label's
    * dense id and its validity, coalesced on max expiry. The `Edge` is
    * made once and shared by every witness derived through it; `pos` is
    * the entry's slot in its source's [[Adj.out]].
    */
  private final class EdgeRec(val edge: Edge, val srcVid: Int, val trgVid: Int, val label: Int,
                              var ts: Long, var exp: Long) {
    var pos: Int = 0
    /** The entry's key in its source's [[Adj.byKey]]. */
    def key: Long = trgVid.toLong * nLabels + label
  }

  /** The valid out-edges of one source: iterated by index, deduplicated
    * on [[EdgeRec.key]], removed by swap-remove.
    */
  private final class Adj {
    val out   = mutable.ArrayBuffer.empty[EdgeRec]
    val byKey = mutable.LongMap.empty[EdgeRec]
  }

  // Per vid; the arrays grow together. The inverted index holds the
  // `nStates` lists of a vid from `vid * nStates` on.
  private val vids     = mutable.LongMap.empty[Int]
  private val freeVids = mutable.Stack.empty[Int]
  private var nVids    = 0 // vids ever handed out, live or free
  private var touching = new Array[Int](64)  // adjacency entries touching the vid
  private var adjOf    = new Array[Adj](64)  // its out-edges, or null
  private var treeOf   = new Array[Tree](64) // the tree rooted at it, or null
  private var invNodes = new Array[Array[TNode]](64 * nStates)
  private var invSize  = new Array[Int](64 * nStates)
  private var liveNodes = 0L

  private val nodeExpiry = new ExpiryWheel[TNode]
  private val edgeExpiry = new ExpiryWheel[EdgeRec]
  private val frontier   = new Frontier

  override def receive(d: Delta, slot: Int): Unit = {
    require(d.sign == 1, "S-PATH is the direct-approach operator; negative tuples go to NtPathNode or DdPathNode")
    val t = d.sgt
    val l = dfa.labelId(t.label)
    if (l < 0) return // no DFA transition reads this label

    // 1. Maintain the windowed adjacency (coalescing on max expiry).
    val rec = addEdge(t, l)

    // 2. Alg. S-PATH main loop: for every DFA transition on this label,
    //    every node at (src, s) whose segment is still valid
    //    (ExpandableTrees) gets a frame for the edge in its tree, unless
    //    the frame could not improve its target. Seeding only reads the
    //    inverted lists; the search after it adds nodes.
    val srcBase = rec.srcVid * nStates
    val trgBase = rec.trgVid * nStates
    var s = 0
    while (s < nStates) {
      val q = dfa.step(s, l)
      if (q >= 0) {
        if (s == dfa.start && treeOf(rec.srcVid) == null) newTree(rec.srcVid, t.src)
        val nodes = invNodes(srcBase + s)
        val n     = invSize(srcBase + s)
        var i = 0
        while (i < n) {
          val un = nodes(i)
          if (un.exp > t.ts) {
            val exp    = math.min(t.exp, un.exp)
            val target = un.tree.get(trgBase + q)
            if (target == null || target.exp < exp)
              frontier.push(un, rec, q, target, math.max(t.ts, un.ts), exp)
          }
          i += 1
        }
      }
      s += 1
    }
    search(now = t.ts)
  }

  /** The adjacency entry of `t` (label id `l`), created or extended. */
  private def addEdge(t: Sgt, l: Int): EdgeRec = {
    val src = intern(t.src)
    val trg = intern(t.trg)
    var adj = adjOf(src)
    if (adj == null) { adj = new Adj; adjOf(src) = adj }
    val k   = trg.toLong * nLabels + l
    val rec = adj.byKey.getOrNull(k)
    if (rec != null) {
      if (t.exp > rec.exp) rec.exp = t.exp
      if (t.ts < rec.ts) rec.ts = t.ts
      return rec
    }
    val r = new EdgeRec(Edge(t.src, t.trg, dfa.labels(l)), src, trg, l, t.ts, t.exp)
    r.pos = adj.out.length
    adj.out += r
    adj.byKey(k) = r
    touching(src) += 1
    touching(trg) += 1
    edgeExpiry.schedule(t.exp, r)
    r
  }

  /** The vid of `v`, assigned on first sight: a recycled one if any. */
  private def intern(v: Long): Int = {
    val known = vids.getOrElse(v, -1)
    if (known >= 0) return known
    val vid =
      if (freeVids.nonEmpty) freeVids.pop()
      else {
        if ((nVids + 1).toLong * nStates > Int.MaxValue)
          throw new IllegalArgumentException(
            s"S-PATH holds at most ${Int.MaxValue / nStates} vertices at once for a DFA of $nStates states")
        if (nVids == touching.length) growVids()
        nVids += 1
        nVids - 1
      }
    vids(v) = vid
    vid
  }

  private def growVids(): Unit = {
    val cap = math.min(2L * touching.length, (Int.MaxValue / nStates).toLong).toInt
    touching = Arrays.copyOf(touching, cap)
    adjOf    = Arrays.copyOf(adjOf, cap)
    treeOf   = Arrays.copyOf(treeOf, cap)
    invNodes = Arrays.copyOf(invNodes, cap * nStates)
    invSize  = Arrays.copyOf(invSize, cap * nStates)
  }

  /** One adjacency entry touching vertex `v` (vid `vid`) is gone; the vid
    * is recycled with the last one. By then its nodes are gone too (see
    * the class comment), except a root whose seed edge derived no node.
    */
  private def release(vid: Int, v: Long): Unit = {
    touching(vid) -= 1
    if (touching(vid) == 0) {
      val tree = treeOf(vid)
      if (tree != null) { assert(tree.size == 1); removeTree(tree) }
      val base = vid * nStates
      var s = 0
      while (s < nStates) {
        assert(invSize(base + s) == 0, "a node outlived every adjacency entry of its vertex")
        invNodes(base + s) = null
        s += 1
      }
      vids.remove(v)
      freeVids.push(vid)
    }
  }

  private def newTree(vid: Int, v: Long): Unit = {
    val tree = new Tree(vid, v)
    treeOf(vid) = tree
    index(tree.root)
    liveNodes += 1
  }

  private def removeTree(tree: Tree): Unit = {
    treeOf(tree.root.vid) = null
    unindex(tree.root)
    liveNodes -= 1
  }

  /** Appends `n` to the inverted index's list at its key. */
  private def index(n: TNode): Unit = {
    val k    = n.key
    val size = invSize(k)
    var ns   = invNodes(k)
    if (ns == null) { ns = new Array[TNode](4); invNodes(k) = ns }
    else if (size == ns.length) { ns = Arrays.copyOf(ns, 2 * size); invNodes(k) = ns }
    ns(size) = n
    n.slot = size
    invSize(k) = size + 1
  }

  /** Swap-removes `n` from its list: the last node takes its slot. */
  private def unindex(n: TNode): Unit = {
    val k    = n.key
    val ns   = invNodes(k)
    val last = invSize(k) - 1
    val m    = ns(last)
    ns(n.slot) = m
    m.slot = n.slot
    ns(last) = null
    invSize(k) = last
  }

  /** Expand / Propagate over the frontier, widest candidate first. */
  private def search(now: Long): Unit = {
    val f = frontier
    while (f.nonEmpty) {
      val i = f.pop()
      traversalSteps += 1
      val parent  = f.parent(i)
      val rec     = f.edge(i)
      val tree    = parent.tree
      val s       = f.s(i)
      val candTs  = f.ts(i)
      val candExp = f.exp(i)
      // A target present at push time is still there: only `advance`
      // removes nodes.
      val node    = if (f.target(i) != null) f.target(i) else tree.get(rec.trgVid * nStates + s)
      if (node == null) { // Alg. Expand: new leaf under `parent`.
        if (candTs < candExp) {
          val n = new TNode(rec.edge.trg, s, rec.trgVid, tree)
          n.witness = new PathCell(rec.edge, parent.witness)
          n.ts = candTs; n.exp = candExp
          if (dfa.isFinal(s)) n.result = resultOf(n)
          tree.add(n)
          index(n)
          liveNodes += 1
          nodeExpiry.schedule(candExp, n)
          if (n.result != null) emitResult(n)
          pushNeighbours(n, now)
        }
      } else if (node.exp < candExp) { // Alg. Propagate: better segment.
        // The parent may have been re-routed since `node` was derived, so
        // the witness is rebuilt even when the parent edge is the same.
        node.witness = new PathCell(rec.edge, parent.witness)
        node.ts = math.min(node.ts, candTs)
        node.exp = candExp // stays in its bucket; advance re-checks it
        if (node.result != null) emitResult(node)
        pushNeighbours(node, now)
      } // else: stale, or covered by a segment with a larger expiry
    }
    f.clear()
  }

  /** The result entry of final-state node `n`, not yet in its tree: the
    * one another final-state node of `n.v` in the tree holds, else new.
    * The final-state nodes of `n.v` are its only holders, so it lives
    * exactly as long as one of them does.
    */
  private def resultOf(n: TNode): Coalesced = {
    val base = n.vid * nStates
    var i = 0
    while (i < finals.length) {
      val other = n.tree.get(base + finals(i))
      if (other != null) return other.result
      i += 1
    }
    new Coalesced
  }

  /** Push a frame for every currently-valid out-edge of `node.v` that the
    * DFA can take from state `node.s` (the `G_ts` traversal of Expand
    * line 8) and that would improve its target.
    */
  private def pushNeighbours(node: TNode, now: Long): Unit = {
    val adj = adjOf(node.vid)
    if (adj == null) return
    val out  = adj.out
    val tree = node.tree
    var i = 0
    while (i < out.length) {
      val rec = out(i)
      if (rec.exp > now) {
        val q = dfa.step(node.s, rec.label)
        if (q >= 0) {
          val exp   = math.min(node.exp, rec.exp)
          val child = tree.get(rec.trgVid * nStates + q)
          if (child == null || child.exp < exp)
            frontier.push(node, rec, q, child, math.max(rec.ts, node.ts), exp)
        }
      }
      i += 1
    }
  }

  /** Emits final-state node `n`'s result, coalesced (Def. 11) with what
    * its entry already emitted.
    */
  private def emitResult(n: TNode): Unit = {
    val r = n.result
    if (r.extend(n.ts, n.exp)) emit(Delta(Sgt(n.tree.rootV, n.v, outLabel, r.ts, r.exp, n.witness), 1))
  }

  /** Direct window maintenance: pops the tree nodes and adjacency
    * entries whose bucket came due. An entry refreshed since it was
    * scheduled moves to its new expiry; an expired one goes, and a tree
    * goes with its last node but the root. An expired node's whole
    * subtree has expired too (a node's expiry never exceeds its parent's)
    * and each of its nodes sits in a bucket keyed at most at its expiry,
    * so the subtree comes due in the same `advance`, node by node. No
    * graph traversal is needed — the point of the direct approach. Nodes
    * go before entries, which the recycling of vids relies on.
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

  /** Swap-remove `rec` from its source's entries (the last entry takes
    * its slot) and release the vids of its ends.
    */
  private def removeEdge(rec: EdgeRec): Unit = {
    val adj  = adjOf(rec.srcVid)
    val out  = adj.out
    val last = out(out.length - 1)
    out(rec.pos) = last
    last.pos = rec.pos
    out.dropRightInPlace(1)
    adj.byKey.remove(rec.key)
    if (out.isEmpty) adjOf(rec.srcVid) = null
    release(rec.srcVid, rec.edge.src)
    release(rec.trgVid, rec.edge.trg)
  }

  /** Removes expired node `n` from its tree and the inverted index, and
    * the tree once only its root is left.
    */
  private def drop(n: TNode): Unit = {
    val tree = n.tree
    tree.remove(n)
    unindex(n)
    liveNodes -= 1
    if (tree.size == 1) removeTree(tree)
  }

  /** State-size metric: total tree nodes resident in Δ-PATH. */
  override def stateSize: Long = liveNodes

  /** Total slots of the trees' node tables. */
  private[physical] def nodeTableCapacity: Long = {
    var c = 0L
    var vid = 0
    while (vid < nVids) {
      if (treeOf(vid) != null) c += treeOf(vid).capacity
      vid += 1
    }
    c
  }

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
