package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, TestGraphs}
import repro.graph.LocalMetrics

/** DuckDB cross-checks over a real Distributed NE assignment: SQL over the
  * emitted `(u, v, part)` rows recomputes the partition sizes D.NE reports
  * and the replication factor `LocalMetrics` reports, so the oracle
  * validates the whole measurement path, not just "it ran".
  */
class DistributedNEOracleSpec extends SparkSpec {

  private lazy val (triples, partitionSizes) = {
    val edges = TestGraphs.skewed(200, 1200, seed = 31)
    val res = DistributedNE.partition(spark,
      spark.sparkContext.parallelize(edges.toSeq, 4), DistributedNE.Config(4))
    val ts = res.assignments.collect()
    res.assignments.unpersist(blocking = false)
    (ts, res.partitionSizes)
  }

  private lazy val assignDF = {
    import spark.implicits._
    triples.toSeq.toDF("u", "v", "part")
  }

  test("ORACLE: every input edge appears exactly once in the assignment") {
    val counts = assignDF.groupBy("u", "v").agg(count(lit(1)) as "n")
      .groupBy("n").agg(count(lit(1)) as "edges")
    Oracle.assertEquivalent(counts,
      """SELECT n, COUNT(*) AS edges FROM (
        |  SELECT u, v, COUNT(*) AS n FROM assign GROUP BY u, v
        |) GROUP BY n""".stripMargin,
      "assign" -> assignDF)
    assert(counts.collect().map(r => r.getLong(0)).toSeq == Seq(1L))
  }

  test("ORACLE: per-partition sizes from SQL match DuckDB") {
    import spark.implicits._
    // Result.partitionSizes against DuckDB's per-part counts of the emitted
    // rows; DuckDB has no row for an empty part
    val sizes = partitionSizes.toSeq.zipWithIndex
      .collect { case (n, q) if n > 0 => (q, n) }.toDF("part", "edges")
    Oracle.assertEquivalent(sizes,
      "SELECT part, COUNT(*) AS edges FROM assign GROUP BY part",
      "assign" -> assignDF)
  }

  test("ORACLE: replication-factor numerator via SQL matches DuckDB") {
    val duck = Oracle.query(
      """WITH reps AS (
        |  SELECT DISTINCT part, u AS x FROM assign
        |  UNION
        |  SELECT DISTINCT part, v AS x FROM assign
        |)
        |SELECT COUNT(*) AS replicas, COUNT(DISTINCT x) AS vertices FROM reps""".stripMargin,
      "assign" -> assignDF).head
    val (replicas, vertices) = (duck.getLong(0), duck.getLong(1))
    assert(LocalMetrics.numVertices(triples.map(t => (t._1, t._2))) == vertices)
    assert(math.abs(LocalMetrics.replicationFactor(triples) - replicas.toDouble / vertices) < 1e-9)
  }

  test("LocalMetrics agree with the paper's definitions on this run") {
    assert(triples.map(_._3).distinct.length <= 4)
    val rf = LocalMetrics.replicationFactor(triples)
    val eb = LocalMetrics.edgeBalance(triples)
    assert(rf >= 1.0 && rf <= 4.0)
    assert(eb >= 1.0 && eb <= 1.25)
  }
}
