package repro.physical

import repro.core.Model.{Edge, Sgt}
import repro.core.SgaExpr
import repro.core.SgaExpr.Pos
import scala.collection.mutable

/** PATTERN (Def. 19) as a left-deep tree of pipelined symmetric hash
  * joins (paper §6.1, [77]).
  *
  * Input `i` feeds binary join level `i` (level 1 joins inputs 0 and 1,
  * level `i` joins the accumulated prefix 0..i-1 with input `i`). Each
  * level keeps two hash tables keyed on the equality columns that link
  * the two sides; a tuple arriving on either side is inserted into its
  * table and probes the other (symmetric hash join).
  *
  * - Direct mode: tuples carry validity intervals; join results take the
  *   interval intersection (Def. 19) so expired state never produces a
  *   valid result. A key's entries are kept sorted by expiry and the key
  *   sits in an [[ExpiryWheel]] at its oldest entry's expiry, so
  *   `advance` pops expired entries off the keys whose bucket came due
  *   and never looks at the rest of the state.
  * - Negative-tuple mode: intervals are vacuous (`[ts, ∞)`); a deletion
  *   removes one instance from its hash table and probes the other side
  *   to retract previously produced join results, cascading up the tree
  *   (paper §6.3). A counting DISTINCT restores set semantics.
  */
final class PatternNode(p: SgaExpr.Pattern, mode: Mode) extends Node {
  import PatternNode._

  private val n = p.ins.size

  private def posIdx(pos: Pos): Int = 2 * pos.input + (if (pos.isSrc) 0 else 1)

  // Equality classification: intra-input equalities become per-input
  // filters; cross-input equalities attach to the join level of their
  // later input.
  private val intraEqs: Map[Int, List[(Pos, Pos)]] =
    p.equalities.filter(e => e._1.input == e._2.input).groupBy(_._1.input)
  private val levelEqs: Map[Int, List[(Pos, Pos)]] =
    p.equalities.filter(e => e._1.input != e._2.input)
      .groupBy(e => math.max(e._1.input, e._2.input))

  // Hash tables per level 1..n-1. Left stores prefixes, right input i.
  private val leftTables  = Array.fill(n)(mutable.HashMap.empty[JoinKey, Group])
  private val rightTables = Array.fill(n)(mutable.HashMap.empty[JoinKey, Group])
  private val expiry      = new ExpiryWheel[Group]

  private val distinct = SetSemantics(mode)

  /** Join key positions of level `i`, aligned pairwise: into the prefix
    * binding on the left, into the input-`i` tuple (`0` src, `1` trg) on
    * the right.
    */
  private def levelKeys(i: Int): (Array[Int], Array[Int]) = {
    val pairs = levelEqs.getOrElse(i, Nil).map { case (a, b) =>
      if (math.max(a.input, b.input) != i)
        throw new IllegalStateException("equality assigned to wrong level")
      if (a.input == i) (posIdx(b), posIdx(a) - 2 * i) else (posIdx(a), posIdx(b) - 2 * i)
    }
    (pairs.map(_._1).toArray, pairs.map(_._2).toArray)
  }
  private val (leftKeys, rightKeys) =
    Array.tabulate(n)(i => if (i == 0) (Array.empty[Int], Array.empty[Int]) else levelKeys(i)).unzip

  override def receive(d: Delta, slot: Int): Unit = {
    val t = d.sgt
    // Intra-input equalities are plain filters on the arriving tuple.
    val selfOk = intraEqs.getOrElse(slot, Nil).forall { case (a, b) =>
      value(t, a.isSrc) == value(t, b.isSrc)
    }
    if (!selfOk) return

    val pt = new PartialTuple(Array(t.src, t.trg), t.ts, t.exp)
    if (n == 1) project(pt, d.sign)
    else if (slot == 0) leftArrival(1, pt, d.sign)
    else rightArrival(slot, pt, d.sign)
  }

  private def value(t: Sgt, isSrc: Boolean): Long = if (isSrc) t.src else t.trg

  private def keyOf(pt: PartialTuple, positions: Array[Int]): JoinKey =
    new JoinKey(positions.map(pt.bind(_)))

  // A probe reads the other side's group at this level while `join`
  // writes only at level + 1, so the group is iterated in place.

  /** A prefix tuple (inputs 0..level-1) arrives at `level`'s left side. */
  private def leftArrival(level: Int, pt: PartialTuple, sign: Int): Unit = {
    val key = keyOf(pt, leftKeys(level))
    update(leftTables(level), key, pt, sign)
    rightTables(level).get(key).foreach { g =>
      var i = g.head
      while (i < g.entries.length) { join(pt, g.entries(i), level, sign); i += 1 }
    }
  }

  /** An input-`level` tuple arrives at `level`'s right side. */
  private def rightArrival(level: Int, pt: PartialTuple, sign: Int): Unit = {
    val key = keyOf(pt, rightKeys(level))
    update(rightTables(level), key, pt, sign)
    leftTables(level).get(key).foreach { g =>
      var i = g.head
      while (i < g.entries.length) { join(g.entries(i), pt, level, sign); i += 1 }
    }
  }

  /** Interval-intersecting merge of a prefix and an input-`level` tuple,
    * passed up to the next level (or projected at the last).
    */
  private def join(left: PartialTuple, right: PartialTuple, level: Int, sign: Int): Unit = {
    val ts  = math.max(left.ts, right.ts)
    val exp = math.min(left.exp, right.exp)
    if (ts < exp) {
      val bind = java.util.Arrays.copyOf(left.bind, 2 * level + 2)
      bind(2 * level) = right.bind(0)
      bind(2 * level + 1) = right.bind(1)
      val merged = new PartialTuple(bind, ts, exp)
      if (level == n - 1) project(merged, sign) else leftArrival(level + 1, merged, sign)
    }
  }

  private def project(pt: PartialTuple, sign: Int): Unit = {
    val src = pt.bind(posIdx(p.outSrc))
    val trg = pt.bind(posIdx(p.outTrg))
    // Payload of a PATTERN result is the derived edge itself (Def. 19).
    val out = Sgt(src, trg, p.label, pt.ts, pt.exp, List(Edge(src, trg, p.label)))
    distinct.offer(Delta(out, sign)).foreach(emit)
  }

  /** Insert (`sign = 1`) or remove one instance of `pt` under `key`. */
  private def update(table: Table, key: JoinKey, pt: PartialTuple, sign: Int): Unit =
    if (sign == 1) {
      val g  = table.getOrElseUpdate(key, new Group(key, table))
      val es = g.entries
      // Arrivals are mostly the youngest; a merged prefix may be older.
      var i = es.length
      while (i > g.head && es(i - 1).exp > pt.exp) i -= 1
      es.insert(i, pt)
      if (mode == Mode.Direct && pt.exp < g.scheduled) {
        g.scheduled = pt.exp
        expiry.schedule(pt.exp, g)
      }
    } else {
      val g = table.getOrElse(key, null)
      val i = if (g == null) -1 else g.entries.indexWhere(_.sameAs(pt), g.head)
      require(i >= 0, s"negative tuple for absent entry ${pt.bind.mkString("(", ", ", ")")}")
      g.entries.remove(i)
      if (g.entries.length == g.head) table.remove(key)
    }

  override def advance(now: Long): Unit = if (mode == Mode.Direct) {
    for (g <- expiry.due(now) if g.scheduled <= now) expire(g, now)
    distinct.purge(now)
  }

  /** Drop `g`'s entries that expired by `now`; schedule it again at its
    * new oldest entry, or remove it from its table once empty.
    */
  private def expire(g: Group, now: Long): Unit = {
    val es = g.entries
    while (g.head < es.length && es(g.head).exp <= now) {
      es(g.head) = null
      g.head += 1
    }
    if (g.head == es.length) {
      g.table.remove(g.key)
      g.scheduled = Long.MaxValue
    } else {
      if (2 * g.head >= es.length) { es.remove(0, g.head); g.head = 0 }
      g.scheduled = es(g.head).exp
      expiry.schedule(g.scheduled, g)
    }
  }

  /** Total tuples resident across all hash tables (state-size metric). */
  override def stateSize: Long =
    (leftTables ++ rightTables).map(_.valuesIterator.map(g => (g.entries.length - g.head).toLong).sum).sum
}

private object PatternNode {
  /** Partial binding of inputs `0 until bind.length / 2`: `bind(2i)` is
    * src_i, `bind(2i+1)` trg_i. An input tuple on its own is `(src, trg)`.
    */
  private final class PartialTuple(val bind: Array[Long], val ts: Long, val exp: Long) {
    def sameAs(o: PartialTuple): Boolean =
      ts == o.ts && exp == o.exp && java.util.Arrays.equals(bind, o.bind)
  }

  /** The equality-column values of a tuple, hashed once. */
  private final class JoinKey(val cols: Array[Long]) {
    override val hashCode: Int = java.util.Arrays.hashCode(cols)
    override def equals(o: Any): Boolean = o match {
      case k: JoinKey => k.hashCode == hashCode && java.util.Arrays.equals(cols, k.cols)
      case _          => false
    }
  }

  private type Table = mutable.HashMap[JoinKey, Group]

  /** One key's entries in a join table, sorted by expiry (equal expiries
    * in arrival order); `entries(0 until head)` have expired. In direct
    * mode the group is scheduled at `scheduled`, at most its oldest
    * entry's expiry; a registration at any other bucket is stale.
    */
  private final class Group(val key: JoinKey, val table: Table) {
    val entries = new mutable.ArrayBuffer[PartialTuple](2)
    var head = 0
    var scheduled = Long.MaxValue
  }
}
