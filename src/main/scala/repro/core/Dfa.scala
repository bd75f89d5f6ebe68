package repro.core

import scala.collection.mutable

/** Deterministic finite automaton over edge labels, built from a [[Regex]]
  * via position automaton + subset construction (paper Alg. S-PATH
  * line 1, `ConstructDFA`).
  *
  * States are `0 until nStates` with start state `0`. Every layer of this
  * repo (logical fixpoint, S-PATH, DuckDB oracle) matches only non-empty
  * paths, so none tests the finality of the start state: `ε ∈ L(R)` is
  * irrelevant.
  */
final case class Dfa(
    nStates: Int,
    start: Int,
    finals: Set[Int],
    transitions: Map[(Int, String), Int]) {

  val alphabet: Set[String] = transitions.keysIterator.map(_._2).toSet

  /** The alphabet in dense-id order: `labels(labelId(l)) == l`. Callers
    * that store ids may compare these interned strings by reference.
    */
  val labels: Array[String] = alphabet.toArray.sorted
  private val ids: Map[String, Int] = labels.zipWithIndex.toMap

  /** Dense id of `l` in `0 until labels.length`, or −1 outside the alphabet. */
  def labelId(l: String): Int = ids.getOrElse(l, -1)

  private val table: Array[Int] = {
    val a = Array.fill(nStates * labels.length)(-1)
    for (((s, l), t) <- transitions) a(s * labels.length + ids(l)) = t
    a
  }

  /** `delta` on a dense label id: the target state, or −1 for none. */
  def step(s: Int, l: Int): Int = table(s * labels.length + l)

  val isFinal: Array[Boolean] = Array.tabulate(nStates)(finals)

  def delta(s: Int, l: String): Option[Int] = transitions.get((s, l))

  /** Run the DFA on a word; used by property tests. */
  def accepts(word: Seq[String]): Boolean = {
    var s = start
    for (l <- word) delta(s, l) match {
      case Some(t) => s = t
      case None    => return false
    }
    isFinal(s)
  }
}

object Dfa {

  /** Subset construction over the position automaton of `r` (Glushkov;
    * Berry & Sethi, TCS 1986): each label occurrence is a position, and a
    * state is the set of positions just read. State 0 has read nothing
    * and is final iff `r` is nullable; no transition enters it. Labels go
    * in order of first occurrence, which fixes the state numbering. `walk`
    * gives each sub-expression's (nullable, first, last) and fills `follow`.
    */
  def fromRegex(r: Regex): Dfa = {
    val labelOf = mutable.ArrayBuffer.empty[String]
    val follow  = mutable.ArrayBuffer.empty[Set[Int]]
    def walk(r: Regex): (Boolean, Set[Int], Set[Int]) = r match {
      case Regex.Lbl(l) =>
        val p = labelOf.size
        labelOf += l; follow += Set.empty
        (false, Set(p), Set(p))
      case Regex.Concat(rs) =>
        rs.map(walk).reduceLeft { (x, y) =>
          for (p <- x._3) follow(p) ++= y._2
          (x._1 && y._1, if (x._1) x._2 ++ y._2 else x._2, if (y._1) x._3 ++ y._3 else y._3)
        }
      case Regex.Alt(rs) => rs.map(walk).reduceLeft((x, y) => (x._1 || y._1, x._2 ++ y._2, x._3 ++ y._3))
      case Regex.Star(b) => loop(b).copy(_1 = true)
      case Regex.Plus(b) => loop(b)
    }
    def loop(b: Regex) = { val x = walk(b); for (p <- x._3) follow(p) ++= x._2; x }

    val (nullable, first, last) = walk(r)
    val labels = labelOf.distinct
    val ids    = mutable.Map(Set.empty[Int] -> 0)
    val trans  = mutable.Map.empty[(Int, String), Int]
    val queue  = mutable.Queue(Set.empty[Int])
    while (queue.nonEmpty) {
      val cur  = queue.dequeue()
      val next = if (cur.isEmpty) first else cur.flatMap(follow)
      for (l <- labels) {
        val tgt = next.filter(labelOf(_) == l)
        if (tgt.nonEmpty) trans((ids(cur), l)) = ids.getOrElseUpdate(tgt, { queue.enqueue(tgt); ids.size })
      }
    }
    val finals = ids.collect { case (s, id) if (s.isEmpty && nullable) || s.exists(last) => id }.toSet
    Dfa(ids.size, 0, finals, trans.toMap)
  }
}
