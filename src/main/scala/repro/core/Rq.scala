package repro.core

/** The Regular Query (RQ) model (paper Def. 14): binary non-recursive
  * Datalog extended with transitive closure of body predicates.
  *
  * A program is a list of rules `head(x, y) ← body_1, …, body_n` where
  * each body atom is either a plain binary predicate `l(a, b)` or a
  * transitive closure `l⁺(a, b) as d`. The reserved head `Answer` marks
  * the query output.
  */
object Rq {

  val AnswerPredicate = "Answer"

  /** A body atom: predicate `label` applied to variables `(src, trg)`;
    * `closureAs = Some(d)` denotes `label⁺(src, trg)` introduced under
    * the derived name `d`.
    */
  final case class Atom(label: String, src: String, trg: String, closureAs: Option[String] = None) {
    def closure: Boolean = closureAs.nonEmpty
    def vars: Set[String] = Set(src, trg)
    def render: String =
      closureAs.fold(s"$label($src,$trg)")(d => s"$label+($src,$trg) as $d")
  }

  /** A rule `head(headSrc, headTrg) ← body`. */
  final case class Rule(head: String, headSrc: String, headTrg: String, body: List[Atom]) {
    require(body.nonEmpty, "rule body must be non-empty")
    require(body.exists(_.vars.contains(headSrc)) && body.exists(_.vars.contains(headTrg)),
            s"head variables ($headSrc,$headTrg) must occur in the body")
    def render: String = s"$head($headSrc,$headTrg) <- ${body.map(_.render).mkString(", ")}"
  }

  /** An RQ program: rules + the set of EDB (input graph) labels. */
  final case class Program(rules: List[Rule], edbLabels: Set[String]) {
    require(rules.exists(_.head == AnswerPredicate), s"program needs an $AnswerPredicate rule")
    require(rules.forall(r => !edbLabels.contains(r.head)),
            "IDB heads must not collide with EDB labels (paper Def. 14)")

    /** Dependency graph edges `head -> body predicate` (paper fn. 9). */
    def dependencies: Set[(String, String)] =
      rules.flatMap(r => r.body.map(a => r.head -> a.label)).toSet

    /** The program must be non-recursive: its dependency graph is acyclic. */
    def isNonRecursive: Boolean = topologicalOrder.isDefined

    /** Topological order of predicates such that every predicate appears
      * after all predicates it depends on; `None` when recursive.
      */
    def topologicalOrder: Option[List[String]] = {
      val preds = rules.map(_.head).toSet ++ rules.flatMap(_.body.map(_.label)) ++ edbLabels
      val deps  = dependencies
      val out   = scala.collection.mutable.ListBuffer.empty[String]
      val state = scala.collection.mutable.Map.empty[String, Int] // 0=unseen 1=visiting 2=done
      def visit(p: String): Boolean = state.getOrElse(p, 0) match {
        case 2 => true
        case 1 => false // cycle
        case _ =>
          state(p) = 1
          val ok = deps.collect { case (`p`, q) => q }.forall(visit)
          state(p) = 2
          out += p
          ok
      }
      if (preds.toList.sorted.forall(visit)) Some(out.toList) else None
    }

    def render: String = rules.map(_.render).mkString("\n")
  }
}
