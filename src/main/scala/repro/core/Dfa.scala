package repro.core

import scala.collection.mutable

/** Deterministic finite automaton over edge labels, built from a [[Regex]]
  * via Thompson construction + subset construction (paper Alg. S-PATH
  * line 1, `ConstructDFA`).
  *
  * States are `0 until nStates` with start state `0`. Note on semantics:
  * every layer of this repo (logical fixpoint, S-PATH, DuckDB oracle)
  * matches only non-empty paths, so whether `ε ∈ L(R)` is irrelevant —
  * finality is only ever tested on states reached after consuming at
  * least one edge.
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

  /** ε-NFA fragment with a single start and a single accept state. */
  private final case class Nfa(
      start: Int,
      accept: Int,
      eps: Map[Int, Set[Int]],
      moves: Map[(Int, String), Set[Int]],
      n: Int)

  def fromRegex(r: Regex): Dfa = subsetConstruct(thompson(r))

  private def thompson(r: Regex): Nfa = {
    var next = 0
    def fresh(): Int = { val s = next; next += 1; s }

    def merge[K](a: Map[K, Set[Int]], b: Map[K, Set[Int]]): Map[K, Set[Int]] =
      (a.keySet ++ b.keySet).map(k => k -> (a.getOrElse(k, Set.empty) ++ b.getOrElse(k, Set.empty))).toMap

    def build(r: Regex): Nfa = r match {
      case Regex.Lbl(l) =>
        val s = fresh(); val a = fresh()
        Nfa(s, a, Map.empty, Map((s, l) -> Set(a)), next)
      case Regex.Concat(rs) =>
        rs.map(build).reduceLeft { (x, y) =>
          Nfa(x.start, y.accept,
            merge(merge(x.eps, y.eps), Map(x.accept -> Set(y.start))),
            merge(x.moves, y.moves), next)
        }
      case Regex.Alt(rs) =>
        val s = fresh(); val a = fresh()
        val subs = rs.map(build)
        val eps = subs.foldLeft(Map(s -> subs.map(_.start).toSet)) { (m, sub) =>
          merge(merge(m, sub.eps), Map(sub.accept -> Set(a)))
        }
        Nfa(s, a, eps, subs.map(_.moves).foldLeft(Map.empty[(Int, String), Set[Int]])(merge), next)
      case Regex.Star(inner) =>
        val s = fresh(); val a = fresh()
        val sub = build(inner)
        val eps = merge(sub.eps,
          Map(s -> Set(sub.start, a), sub.accept -> Set(sub.start, a)))
        Nfa(s, a, eps, sub.moves, next)
      case Regex.Plus(inner) =>
        val s = fresh(); val a = fresh()
        val sub = build(inner)
        val eps = merge(sub.eps,
          Map(s -> Set(sub.start), sub.accept -> Set(sub.start, a)))
        Nfa(s, a, eps, sub.moves, next)
    }
    build(r)
  }

  private def subsetConstruct(nfa: Nfa): Dfa = {
    def closure(states: Set[Int]): Set[Int] = {
      val seen  = mutable.Set.empty[Int] ++ states
      val stack = mutable.Stack.empty[Int].pushAll(states)
      while (stack.nonEmpty) {
        val s = stack.pop()
        for (t <- nfa.eps.getOrElse(s, Set.empty) if seen.add(t)) stack.push(t)
      }
      seen.toSet
    }

    val alphabet = nfa.moves.keysIterator.map(_._2).toSet
    val startSet = closure(Set(nfa.start))
    val ids      = mutable.LinkedHashMap[Set[Int], Int](startSet -> 0)
    val trans    = mutable.Map.empty[(Int, String), Int]
    val queue    = mutable.Queue(startSet)
    while (queue.nonEmpty) {
      val cur   = queue.dequeue()
      val curId = ids(cur)
      for (l <- alphabet) {
        val moved = cur.flatMap(s => nfa.moves.getOrElse((s, l), Set.empty))
        if (moved.nonEmpty) {
          val tgt = closure(moved)
          val tgtId = ids.getOrElseUpdate(tgt, { queue.enqueue(tgt); ids.size })
          trans((curId, l)) = tgtId
        }
      }
    }
    val finals = ids.collect { case (set, id) if set.contains(nfa.accept) => id }.toSet
    Dfa(ids.size, 0, finals, trans.toMap)
  }
}
