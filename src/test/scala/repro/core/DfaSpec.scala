package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.util.PropertyChecks
import repro.core.Regex._

class DfaSpec extends AnyFunSuite with PropertyChecks {

  /** Reference matcher via the JDK regex engine (labels are mapped to
    * single characters, which our 1-char test alphabet guarantees).
    */
  private def javaPattern(r: Regex): String = r match {
    case Lbl(l)     => l
    case Concat(rs) => rs.map(p => s"(?:${javaPattern(p)})").mkString
    case Alt(rs)    => rs.map(p => s"(?:${javaPattern(p)})").mkString("|")
    case Star(p)    => s"(?:${javaPattern(p)})*"
    case Plus(p)    => s"(?:${javaPattern(p)})+"
  }

  private def refAccepts(r: Regex, word: Seq[String]): Boolean =
    word.mkString.matches(javaPattern(r))

  private val alphabet = Seq("a", "b", "c")

  private def allWords(maxLen: Int): Seq[Seq[String]] =
    (0 to maxLen).flatMap(n =>
      Seq.fill(n)(alphabet).foldLeft(Seq(Seq.empty[String]))((acc, as) =>
        for (w <- acc; a <- as) yield w :+ a))

  private def exhaustive(r: Regex): Unit =
    for (w <- allWords(5) if w.nonEmpty) // non-empty: paths have ≥1 edge
      assert(Dfa.fromRegex(r).accepts(w) == refAccepts(r, w), s"word=$w regex=${r.render}")

  test("single label DFA") {
    val dfa = Dfa.fromRegex(Lbl("a"))
    assert(dfa.accepts(Seq("a")))
    assert(!dfa.accepts(Seq("b")))
    assert(!dfa.accepts(Seq("a", "a")))
  }

  test("a+ accepts powers of a only") { exhaustive(Plus(Lbl("a"))) }
  test("a* on non-empty words equals a+") { exhaustive(Star(Lbl("a"))) }
  test("a b c concatenation") { exhaustive(Concat(List(Lbl("a"), Lbl("b"), Lbl("c")))) }
  test("alternation a|b") { exhaustive(Alt(List(Lbl("a"), Lbl("b")))) }
  test("Q2 shape: a b*") { exhaustive(Regex.parse("a b*")) }
  test("Q3 shape: a b* c*") { exhaustive(Regex.parse("a b* c*")) }
  test("Q4 shape: (a b c)+") { exhaustive(Regex.parse("(a b c)+")) }
  test("nested: (a | b c)* a") { exhaustive(Regex.parse("(a | b c)* a")) }
  test("double closure: (a+ b)+") { exhaustive(Regex.parse("(a+ b)+")) }

  /** Every regex shape exercised above. */
  private val shapes: Seq[Regex] = Seq(Lbl("a"), Plus(Lbl("a")), Star(Lbl("a")),
    Concat(List(Lbl("a"), Lbl("b"), Lbl("c"))), Alt(List(Lbl("a"), Lbl("b")))) ++
    Seq("a b*", "a b* c*", "(a b c)+", "(a | b c)* a", "(a+ b)+").map(Regex.parse)

  test("dense label ids: step agrees with delta, outside labels map to -1") {
    for (r <- shapes) {
      val dfa = Dfa.fromRegex(r)
      for (l <- alphabet :+ "z") {
        val id = dfa.labelId(l)
        if (!dfa.alphabet(l)) assert(id == -1, s"$l outside ${r.render}")
        else {
          assert(dfa.labels(id) == l)
          for (s <- 0 until dfa.nStates)
            assert(dfa.step(s, id) == dfa.delta(s, l).getOrElse(-1), s"δ($s, $l) of ${r.render}")
        }
      }
      for (s <- 0 until dfa.nStates) assert(dfa.isFinal(s) == dfa.finals(s))
    }
  }

  test("start state is 0, and pinned DFAs: ans+, both Q3 shapes, (a a)+") {
    def q3(a: String, b: String, c: String) =
      Dfa(4, 0, Set(1, 2, 3), Map((0, a) -> 1, (1, b) -> 2, (1, c) -> 3, (2, b) -> 2, (2, c) -> 3, (3, c) -> 3))
    val pinned = Seq(
      "ans+"                       -> Dfa(2, 0, Set(1), Map((0, "ans") -> 1, (1, "ans") -> 1)),
      "ans cmt* c2a*"              -> q3("ans", "cmt", "c2a"),
      "likes replyOf* hasCreator*" -> q3("likes", "replyOf", "hasCreator"),
      "(a a)+"                     -> Dfa(3, 0, Set(2), Map((0, "a") -> 1, (1, "a") -> 2, (2, "a") -> 1)))
    for ((r, dfa) <- pinned) {
      val got = Dfa.fromRegex(Regex.parse(r))
      assert(got.start == 0, r)
      assert(got == dfa, r)
    }
  }

  test("alphabet restricted to regex labels") {
    assert(Dfa.fromRegex(Regex.parse("a b+")).alphabet == Set("a", "b"))
  }

  private val genRegex: Gen[Regex] = {
    val genLbl = Gen.oneOf(alphabet).map(Lbl.apply)
    def gen(depth: Int): Gen[Regex] =
      if (depth == 0) genLbl
      else Gen.frequency(
        3 -> genLbl,
        2 -> Gen.listOfN(2, gen(depth - 1)).map(Concat.apply),
        2 -> Gen.listOfN(2, gen(depth - 1)).map(Alt.apply),
        1 -> gen(depth - 1).map(Star.apply),
        1 -> gen(depth - 1).map(Plus.apply))
    gen(3)
  }

  test("property: DFA agrees with JDK regex on random regexes and words") {
    val genWord = Gen.choose(1, 6).flatMap(n => Gen.listOfN(n, Gen.oneOf(alphabet)))
    checkProp(Prop.forAll(genRegex, genWord) { (r, w) =>
      Dfa.fromRegex(r).accepts(w) == refAccepts(r, w)
    }, minTests = 200)
  }
}
