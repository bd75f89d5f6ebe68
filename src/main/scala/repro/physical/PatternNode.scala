package repro.physical

import repro.core.Model.{Edge, Sgt}
import repro.core.SgaExpr
import repro.core.SgaExpr.Pos
import scala.collection.mutable

/** PATTERN (Def. 19) as one n-ary symmetric hash join (MJoin, Viglas et
  * al., VLDB 2003): the pipelined symmetric hash joins of paper §6.1
  * without materialized join prefixes.
  *
  * Each input tuple is stored once, in a group of its input's `src`
  * index and, when its `trg` variable is joined with another input, in
  * a group of its `trg` index. An arriving tuple (insert or deletion) is
  * extended one input at a time over the other inputs' indexes; the next
  * input is chosen per partial binding (see [[extend]]), and no partial
  * result is stored. Each arrival thus yields exactly the derivations a
  * binary join tree would give it — every combination with the current
  * tuples of the other inputs that meets the equalities — only in an
  * order that follows the selective inputs instead of the RQ body.
  *
  * A derivation's interval is the intersection of its tuples' intervals
  * (Def. 19); empty ones are pruned while extending. A group's entries
  * are kept sorted by expiry and the group sits in an [[ExpiryWheel]] at
  * its oldest entry's expiry, so `advance` pops expired input tuples off
  * the groups whose bucket came due and never looks at the rest of the
  * state. A deletion (negative tuple) removes its tuple from its groups
  * and extends like an insertion to retract the derivations it took part
  * in (paper §6.3).
  *
  * The operator never asks which execution mode it runs in. Under
  * negative tuples every tuple is valid on `[0, ∞)`, so nothing is ever
  * scheduled to expire, and `distinct` is the plan's [[SetSemantics]]: a
  * [[Coalescer]] under direct expiry, a [[CountingDistinct]] otherwise.
  */
final class PatternNode(p: SgaExpr.Pattern, distinct: SetSemantics) extends Node {
  import PatternNode._

  private val n = p.ins.size
  require(n <= 32, s"PATTERN over $n inputs; at most 32 are supported")

  private def posIdx(pos: Pos): Int = 2 * pos.input + (if (pos.isSrc) 0 else 1)

  /** Variable of each position (`2i` src_i, `2i+1` trg_i): the classes of
    * the equalities, numbered densely.
    */
  private val varOf: Array[Int] = {
    val parent = Array.tabulate(2 * n)(identity)
    def find(i: Int): Int = if (parent(i) == i) i else find(parent(i))
    for ((a, b) <- p.equalities) parent(find(posIdx(a))) = find(posIdx(b))
    val roots = (0 until 2 * n).map(find)
    val ids   = roots.distinct.zipWithIndex.toMap
    roots.map(ids).toArray
  }
  private def srcVar(i: Int): Int = varOf(2 * i)
  private def trgVar(i: Int): Int = varOf(2 * i + 1)

  /** An input whose src and trg share a variable keeps only self-loops. */
  private val selfLoop = Array.tabulate(n)(i => srcVar(i) == trgVar(i))

  private val bySrc = Array.fill(n)(mutable.LongMap.empty[Group])
  /** Per input, the `trg` index, or `null` when its trg variable is
    * joined with no other input (it is then never bound before the input
    * is taken).
    */
  private val byTrg = Array.tabulate(n) { i =>
    val joined = !selfLoop(i) && (0 until 2 * n).exists(q => q / 2 != i && varOf(q) == trgVar(i))
    if (joined) mutable.LongMap.empty[Group] else null
  }
  private val live   = new Array[Long](n)
  private val expiry = new ExpiryWheel[Group]

  // Values of the variables bound so far; which ones are valid is the
  // `bound` mask passed down `extend`.
  private val vals = new Array[Long](varOf.max + 1)
  private val outSrc = varOf(posIdx(p.outSrc))
  private val outTrg = varOf(posIdx(p.outTrg))

  override def receive(d: Delta, slot: Int): Unit = {
    val t = d.sgt
    if (selfLoop(slot) && t.src != t.trg) return
    vals(srcVar(slot)) = t.src
    vals(trgVar(slot)) = t.trg
    if (n == 1) project(t.ts, t.exp, d.sign)
    else {
      val u = new Tup(t.src, t.trg, t.ts, t.exp)
      update(bySrc(slot), u.src, u, slot, d.sign)
      if (byTrg(slot) != null) update(byTrg(slot), u.trg, u, slot, d.sign)
      live(slot) += d.sign
      extend(1L << slot, bit(srcVar(slot)) | bit(trgVar(slot)), t.ts, t.exp, d.sign)
    }
  }

  /** Extends a partial derivation over inputs `used`, with variables
    * `bound` and interval `[ts, exp)`, by one more input:
    *   - an input with both variables bound is a membership check, made on
    *     the smaller of its two groups;
    *   - otherwise the connected input whose group for its bound value is
    *     smallest; a connected input with no such group ends the extension;
    *   - with no connected input left (a cross product), the input with
    *     the fewest tuples, scanned whole.
    * A probe iterates groups in place: only the arriving tuple's own
    * input is written during an arrival, and it is never probed.
    */
  private def extend(used: Long, bound: Long, ts: Long, exp: Long, sign: Int): Unit = {
    if (used == (1L << n) - 1) { project(ts, exp, sign); return }
    var best: Group = null
    var bestInput   = -1
    var both        = false
    var i = 0
    while (i < n && !both) {
      if ((used & (1L << i)) == 0) {
        val sb = (bound & bit(srcVar(i))) != 0
        val tb = (bound & bit(trgVar(i))) != 0
        if (sb || tb) {
          val gs = if (sb) bySrc(i).getOrNull(vals(srcVar(i))) else null
          val gt = if (tb && !selfLoop(i)) byTrg(i).getOrNull(vals(trgVar(i))) else null
          if ((sb && gs == null) || (tb && !selfLoop(i) && gt == null)) return
          val g = if (gt == null || (gs != null && gs.size <= gt.size)) gs else gt
          both = sb && tb
          if (both || best == null || g.size < best.size) { best = g; bestInput = i }
        }
      }
      i += 1
    }
    if (best != null) probe(best, bestInput, used, bound, ts, exp, sign)
    else {
      i = 0
      while (i < n) {
        if ((used & (1L << i)) == 0 && (bestInput < 0 || live(i) < live(bestInput))) bestInput = i
        i += 1
      }
      bySrc(bestInput).valuesIterator.foreach(g => probe(g, bestInput, used, bound, ts, exp, sign))
    }
  }

  /** Extends over each entry of `g`, a group of input `i`, that agrees with
    * the bound variables and overlaps `[ts, exp)`.
    */
  private def probe(g: Group, i: Int, used: Long, bound: Long, ts: Long, exp: Long, sign: Int): Unit = {
    val sv = srcVar(i)
    val tv = trgVar(i)
    val sb = (bound & bit(sv)) != 0
    val tb = (bound & bit(tv)) != 0
    val es = g.entries
    var k  = g.head
    while (k < es.length) {
      val u = es(k)
      if ((!sb || u.src == vals(sv)) && (!tb || u.trg == vals(tv))) {
        val ts2  = math.max(ts, u.ts)
        val exp2 = math.min(exp, u.exp)
        if (ts2 < exp2) {
          vals(sv) = u.src
          vals(tv) = u.trg
          extend(used | (1L << i), bound | bit(sv) | bit(tv), ts2, exp2, sign)
        }
      }
      k += 1
    }
  }

  private def project(ts: Long, exp: Long, sign: Int): Unit = {
    val src = vals(outSrc)
    val trg = vals(outTrg)
    // Payload of a PATTERN result is the derived edge itself (Def. 19).
    val out = Sgt(src, trg, p.label, ts, exp, List(Edge(src, trg, p.label)))
    distinct.offer(Delta(out, sign)).foreach(emit)
  }

  /** Insert (`sign = 1`) or remove one instance of input `i`'s tuple `u`
    * under `key` of `index`; a removed tuple must be present.
    */
  private def update(index: Index, key: Long, u: Tup, i: Int, sign: Int): Unit =
    if (sign == 1) {
      var g = index.getOrNull(key)
      if (g == null) { g = new Group(key, index, i); index(key) = g }
      val es = g.entries
      // Arrivals are mostly the youngest; a PATH input may emit older ones.
      var k = es.length
      while (k > g.head && es(k - 1).exp > u.exp) k -= 1
      es.insert(k, u)
      if (u.exp < g.scheduled) {
        g.scheduled = u.exp
        expiry.schedule(u.exp, g)
      }
    } else {
      val g = index.getOrNull(key)
      val k = if (g == null) -1 else g.entries.indexWhere(_.sameAs(u), g.head)
      require(k >= 0, s"negative tuple for absent entry (${u.src}, ${u.trg})")
      g.entries.remove(k)
      if (g.size == 0) index.remove(key)
    }

  override def advance(now: Long): Unit = {
    for (g <- expiry.due(now) if g.scheduled <= now) expire(g, now)
    distinct.purge(now)
  }

  /** Drop `g`'s entries that expired by `now`; schedule it again at its
    * new oldest entry, or remove it from its index once empty. A tuple
    * leaves `live` with its `src` group, the one group every tuple is in.
    */
  private def expire(g: Group, now: Long): Unit = {
    val es = g.entries
    val h0 = g.head
    while (g.head < es.length && es(g.head).exp <= now) {
      es(g.head) = null
      g.head += 1
    }
    if (g.index eq bySrc(g.input)) live(g.input) -= g.head - h0
    if (g.head == es.length) {
      g.index.remove(g.key)
      g.scheduled = Long.MaxValue
    } else {
      if (2 * g.head >= es.length) { es.remove(0, g.head); g.head = 0 }
      g.scheduled = es(g.head).exp
      expiry.schedule(g.scheduled, g)
    }
  }

  /** Live input tuples, each counted once (state-size metric). */
  override def stateSize: Long = live.sum
}

private object PatternNode {
  private def bit(v: Int): Long = 1L << v

  /** An input tuple: its own `(src, trg)` and validity interval. */
  private final class Tup(val src: Long, val trg: Long, val ts: Long, val exp: Long) {
    def sameAs(o: Tup): Boolean = src == o.src && trg == o.trg && ts == o.ts && exp == o.exp
  }

  private type Index = mutable.LongMap[Group]

  /** The entries of input `input`'s `index` under `key`, sorted by expiry
    * (equal expiries in arrival order); `entries(0 until head)` have
    * expired. The group is scheduled at `scheduled`, at most its oldest
    * entry's expiry, or nowhere while that is `Long.MaxValue`; a
    * registration at any other bucket is stale.
    */
  private final class Group(val key: Long, val index: Index, val input: Int) {
    val entries = new mutable.ArrayBuffer[Tup](2)
    var head = 0
    var scheduled = Long.MaxValue
    def size: Int = entries.length - head
  }
}
