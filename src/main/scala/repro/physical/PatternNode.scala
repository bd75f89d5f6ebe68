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
  *   valid result — expired entries are purged wholesale on `advance`,
  *   never processed individually.
  * - Negative-tuple mode: intervals are vacuous (`[ts, ∞)`); a deletion
  *   removes one instance from its hash table and probes the other side
  *   to retract previously produced join results, cascading up the tree
  *   (paper §6.3). A counting DISTINCT restores set semantics.
  */
final class PatternNode(p: SgaExpr.Pattern, mode: Mode) extends Node {
  private val n = p.ins.size

  /** Partial binding: endpoint values for inputs `0 until upTo`;
    * positions 2i (src_i) and 2i+1 (trg_i).
    */
  private final case class PartialTuple(bind: Vector[Long], ts: Long, exp: Long)

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
  private val leftTables =
    Array.fill(n)(mutable.HashMap.empty[Vector[Long], mutable.ArrayBuffer[PartialTuple]])
  private val rightTables =
    Array.fill(n)(mutable.HashMap.empty[Vector[Long], mutable.ArrayBuffer[PartialTuple]])

  private val distinct = SetSemantics(mode)

  /** Join key extractors for level `i`: earlier-side positions and
    * input-i-side positions, aligned pairwise.
    */
  private def levelKeys(i: Int): (List[Int], List[Int]) = {
    val eqs = levelEqs.getOrElse(i, Nil)
    val pairs = eqs.map { case (a, b) =>
      if (math.max(a.input, b.input) != i)
        throw new IllegalStateException("equality assigned to wrong level")
      if (a.input == i) (posIdx(b), posIdx(a)) else (posIdx(a), posIdx(b))
    }
    (pairs.map(_._1), pairs.map(_._2))
  }
  private val keysByLevel: Array[(List[Int], List[Int])] =
    Array.tabulate(n)(i => if (i == 0) (Nil, Nil) else levelKeys(i))

  override def receive(d: Delta, slot: Int): Unit = {
    val t = d.sgt
    // Intra-input equalities are plain filters on the arriving tuple.
    val selfOk = intraEqs.getOrElse(slot, Nil).forall { case (a, b) =>
      value(t, a.isSrc) == value(t, b.isSrc)
    }
    if (!selfOk) return

    val bind = Vector.tabulate(2 * n) { j =>
      if (j == 2 * slot) t.src else if (j == 2 * slot + 1) t.trg else 0L
    }
    val pt = PartialTuple(bind, t.ts, t.exp)
    if (n == 1) project(pt, d.sign)
    else if (slot == 0) leftArrival(1, pt, d.sign)
    else rightArrival(slot, pt, d.sign)
  }

  private def value(t: Sgt, isSrc: Boolean): Long = if (isSrc) t.src else t.trg

  /** A prefix tuple (inputs 0..level-1) arrives at `level`'s left side. */
  private def leftArrival(level: Int, pt: PartialTuple, sign: Int): Unit = {
    val (leftPos, rightPos) = keysByLevel(level)
    val key = leftPos.map(pt.bind).toVector
    if (sign == 1) leftTables(level).getOrElseUpdate(key, mutable.ArrayBuffer.empty) += pt
    else removeOne(leftTables(level), key, pt)
    for (other <- rightTables(level).getOrElse(key, mutable.ArrayBuffer.empty).toList)
      merge(pt, other, level, sign).foreach(continue(level, _, sign))
    // Stale keys vs. rightPos alignment is impossible: both sides build
    // their key from the same equality list in the same order.
    locally(rightPos)
  }

  /** An input-`level` tuple arrives at `level`'s right side. */
  private def rightArrival(level: Int, pt: PartialTuple, sign: Int): Unit = {
    val (_, rightPos) = keysByLevel(level)
    val key = rightPos.map(pt.bind).toVector
    if (sign == 1) rightTables(level).getOrElseUpdate(key, mutable.ArrayBuffer.empty) += pt
    else removeOne(rightTables(level), key, pt)
    for (other <- leftTables(level).getOrElse(key, mutable.ArrayBuffer.empty).toList)
      merge(other, pt, level, sign).foreach(continue(level, _, sign))
  }

  private def continue(level: Int, merged: PartialTuple, sign: Int): Unit =
    if (level == n - 1) project(merged, sign) else leftArrival(level + 1, merged, sign)

  /** Interval-intersecting merge of a prefix and an input-`level` tuple. */
  private def merge(left: PartialTuple, right: PartialTuple, level: Int, sign: Int): Option[PartialTuple] = {
    val ts  = math.max(left.ts, right.ts)
    val exp = math.min(left.exp, right.exp)
    if (ts >= exp) None
    else {
      val bind = Vector.tabulate(2 * n) { j =>
        if (j == 2 * level || j == 2 * level + 1) right.bind(j) else left.bind(j)
      }
      Some(PartialTuple(bind, ts, exp))
    }
  }

  private def project(pt: PartialTuple, sign: Int): Unit = {
    val src = pt.bind(posIdx(p.outSrc))
    val trg = pt.bind(posIdx(p.outTrg))
    // Payload of a PATTERN result is the derived edge itself (Def. 19).
    val out = Sgt(src, trg, p.label, pt.ts, pt.exp, List(Edge(src, trg, p.label)))
    distinct.offer(Delta(out, sign)).foreach(emit)
  }

  private def removeOne(
      table: mutable.HashMap[Vector[Long], mutable.ArrayBuffer[PartialTuple]],
      key: Vector[Long],
      pt: PartialTuple): Unit =
    table.get(key).foreach { buf =>
      val i = buf.indexOf(pt)
      require(i >= 0, s"negative tuple for absent entry $pt")
      buf.remove(i)
      if (buf.isEmpty) table.remove(key)
    }

  override def advance(now: Long): Unit = if (mode == Mode.Direct) {
    def purge(tables: Array[mutable.HashMap[Vector[Long], mutable.ArrayBuffer[PartialTuple]]]): Unit =
      tables.foreach { t =>
        t.foreach { case (_, buf) => buf.filterInPlace(_.exp > now) }
        t.filterInPlace((_, buf) => buf.nonEmpty)
      }
    purge(leftTables); purge(rightTables)
    distinct.purge(now)
  }

  /** Total tuples resident across all hash tables (state-size metric). */
  override def stateSize: Long =
    (leftTables ++ rightTables).map(_.valuesIterator.map(_.size.toLong).sum).sum
}
