package repro.streams

import repro.core.{Regex, Rq, SgaExpr, SgqParser}
import repro.core.Regex.{Lbl, Plus, Star}

/** The query workload of paper Table 1, instantiated per dataset.
  *
  * `Q1–Q4` are RPQs evaluated by a PATH operator; `Q4`'s canonical plan
  * is the loop-caching form `P_{d+}(⋈(a,b,c))` generated by SGQParser
  * from its RQ encoding, and `repro.core.Rewriter.plans` derives the
  * other plans of §7.4. `Q5–Q8` are RQ programs translated by
  * [[SgqParser]]. `a`, `b`, `c` are edge-predicate placeholders bound
  * per dataset (paper: "instantiated based on the dataset
  * characteristics"); Kleene `a*` in Q1 is evaluated as `a+` — empty
  * paths are excluded uniformly in every layer of this repo.
  */
object Workloads {

  /** Placeholder bindings for the edge predicates of Table 1. */
  final case class Binding(a: String, b: String, c: String)

  val queryNames: List[String] = (1 to 8).map(i => s"Q$i").toList

  /** StackOverflow bindings: the three interaction labels. */
  def soBinding(q: String): Binding = Binding("ans", "cmt", "c2a")

  /** LDBC bindings, per query (semantics in DESIGN.md):
    * Q1 navigates the tree-shaped `replyOf` (the case where DD wins in
    * the paper); Q5 ≈ IS7 (replies between messages of friends);
    * Q6/Q7 ≈ IC7 (recent likers over a friendship path); Q8 models
    * contact tracing through co-liked posts.
    */
  def ldbcBinding(q: String): Binding = q match {
    case "Q1"               => Binding("replyOf", "replyOf", "replyOf")
    case "Q2" | "Q3" | "Q4" => Binding("likes", "replyOf", "hasCreator")
    case "Q5"               => Binding("knows", "hasCreator", "replyOf")
    case "Q6" | "Q7"        => Binding("knows", "likes", "hasCreator")
    case "Q8"               => Binding("likes", "likes", "likes")
    case other              => throw new IllegalArgumentException(s"unknown query $other")
  }

  private def w(l: String, size: Long, slide: Long) = SgaExpr.Wscan(l, size, slide)

  /** The RQ program of Q4–Q8 (None for the pure-RPQ Q1–Q3). */
  def program(q: String, bind: Binding): Option[Rq.Program] = {
    val Binding(a, b, c) = bind
    q match {
      case "Q4" => Some(Rq.Program(List(
        Rq.Rule("d", "x", "y", List(
          Rq.Atom(a, "x", "z1"), Rq.Atom(b, "z1", "z2"), Rq.Atom(c, "z2", "y"))),
        Rq.Rule(Rq.AnswerPredicate, "x", "y", List(
          Rq.Atom("d", "x", "y", closureAs = Some("dp"))))),
        edbLabels = Set(a, b, c)))
      case "Q5" => Some(Rq.Program(List(
        Rq.Rule(Rq.AnswerPredicate, "m1", "m2", List(
          Rq.Atom(a, "x", "y"), Rq.Atom(b, "m1", "x"), Rq.Atom(b, "m2", "y"),
          Rq.Atom(c, "m2", "m1")))),
        edbLabels = Set(a, b, c)))
      case "Q6" => Some(Rq.Program(List(
        Rq.Rule(Rq.AnswerPredicate, "x", "y", List(
          Rq.Atom(a, "x", "y", closureAs = Some("ap")),
          Rq.Atom(b, "x", "m"), Rq.Atom(c, "m", "y")))),
        edbLabels = Set(a, b, c)))
      case "Q7" => Some(Rq.Program(List(
        Rq.Rule("RL", "x", "y", List(
          Rq.Atom(a, "x", "y", closureAs = Some("ap")),
          Rq.Atom(b, "x", "m"), Rq.Atom(c, "m", "y"))),
        Rq.Rule(Rq.AnswerPredicate, "x", "m2", List(
          Rq.Atom("RL", "x", "y", closureAs = Some("RLP")),
          Rq.Atom(c, "m2", "y")))),
        edbLabels = Set(a, b, c)))
      case "Q8" => Some(Rq.Program(List(
        Rq.Rule("P", "x", "y", List(Rq.Atom(a, "x", "z"), Rq.Atom(a, "y", "z"))),
        Rq.Rule(Rq.AnswerPredicate, "x", "y", List(
          Rq.Atom("P", "x", "y", closureAs = Some("PP"))))),
        edbLabels = Set(a)))
      case _ => None
    }
  }

  /** Canonical SGA expression of a Table 1 query over a sliding window. */
  def expr(q: String, bind: Binding, windowSize: Long, slide: Long): SgaExpr = {
    val Binding(a, b, c) = bind
    q match {
      case "Q1" =>
        SgaExpr.Path(List(w(a, windowSize, slide)), Plus(Lbl(a)), "Answer")
      case "Q2" =>
        SgaExpr.Path(List(w(a, windowSize, slide), w(b, windowSize, slide)),
                     Regex.concat(Lbl(a), Star(Lbl(b))), "Answer")
      case "Q3" =>
        SgaExpr.Path(List(w(a, windowSize, slide), w(b, windowSize, slide), w(c, windowSize, slide)),
                     Regex.concat(Lbl(a), Star(Lbl(b)), Star(Lbl(c))), "Answer")
      case _ =>
        SgqParser.parse(
          program(q, bind).getOrElse(throw new IllegalArgumentException(s"unknown query $q")),
          windowSize, slide)
    }
  }
}
