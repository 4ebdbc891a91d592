package repro.graph

import repro.{Oracle, SparkSpec, TestGraphs}

class MetricsSpec extends SparkSpec {
  import repro.TestGraphs.triples

  private def assignDF(ts: Array[(Long, Long, Int)]) = {
    import spark.implicits._
    ts.toSeq.toDF("u", "v", "part")
  }

  test("numVertices counts V(E), not the id space") {
    assert(LocalMetrics.numVertices(Array((1L, 5L), (5L, 9L))) == 3)
  }

  test("RF is 1.0 when every vertex lives in one partition") {
    val ts = triples(TestGraphs.twoTriangles,
      Array(0, 0, 0, 1, 1, 1, 0)) // bridge (2,3) on part 0 replicates 3
    // vertices: 0,1,2 in p0; 3,4,5 in p1; edge (2,3)→p0 adds replica of 3
    val rf = LocalMetrics.replicationFactor(ts)
    assert(math.abs(rf - 7.0 / 6.0) < 1e-9)
  }

  test("RF of an all-one-partition assignment is exactly 1") {
    val ts = triples(TestGraphs.k4, Array.fill(TestGraphs.k4.length)(0))
    assert(LocalMetrics.replicationFactor(ts) == 1.0)
  }

  test("ORACLE: LocalMetrics RF/EB/VB match DuckDB SQL on the same assignment") {
    val edges = TestGraphs.skewed(200, 800)
    val ts = triples(edges, TestGraphs.randomAssign(edges, 8))
    val duck = Oracle.query(
      """WITH reps AS (SELECT part, u AS x FROM assign UNION SELECT part, v AS x FROM assign),
        |     ep AS (SELECT part, COUNT(*) AS n FROM assign GROUP BY part),
        |     vp AS (SELECT part, COUNT(*) AS n FROM reps GROUP BY part)
        |SELECT CAST((SELECT COUNT(*) FROM reps) AS DOUBLE)
        |         / (SELECT COUNT(DISTINCT x) FROM reps) AS rf,
        |       (SELECT MAX(n) / AVG(n) FROM ep) AS eb,
        |       (SELECT MAX(n) / AVG(n) FROM vp) AS vb""".stripMargin,
      "assign" -> assignDF(ts)).head
    assert(math.abs(LocalMetrics.replicationFactor(ts) - duck.getDouble(0)) < 1e-9)
    assert(math.abs(LocalMetrics.edgeBalance(ts) - duck.getDouble(1)) < 1e-9)
    assert(math.abs(LocalMetrics.vertexBalance(ts) - duck.getDouble(2)) < 1e-9)
  }

  test("ORACLE: replica count matches DuckDB over the same assignment") {
    val edges = TestGraphs.skewed(100, 300)
    val ts = triples(edges, TestGraphs.randomAssign(edges, 4))
    val replicas = Oracle.query(
      """SELECT COUNT(*) AS replicas FROM (
        |  SELECT DISTINCT part, u AS x FROM assign
        |  UNION
        |  SELECT DISTINCT part, v AS x FROM assign
        |)""".stripMargin,
      "assign" -> assignDF(ts)).head.getLong(0)
    // the numerator of LocalMetrics' RF: RF · |V(E)|
    val numerator = LocalMetrics.replicationFactor(ts) * LocalMetrics.numVertices(edges)
    assert(math.round(numerator) == replicas)
  }

  test("ORACLE: per-partition edge counts match DuckDB") {
    val edges = TestGraphs.skewed(150, 500, seed = 11)
    val ts = triples(edges, TestGraphs.randomAssign(edges, 8))
    val eb = Oracle.query(
      """SELECT MAX(n) / AVG(n) AS eb FROM (
        |  SELECT part, COUNT(*) AS n FROM assign GROUP BY part
        |)""".stripMargin,
      "assign" -> assignDF(ts)).head.getDouble(0)
    assert(math.abs(LocalMetrics.edgeBalance(ts) - eb) < 1e-9)
  }

  test("ORACLE: degree table matches DuckDB") {
    import spark.implicits._
    val edges = TestGraphs.skewed(80, 250, seed = 5)
    val csr = Csr(edges)
    val degrees = csr.vertexIds.indices
      .map(lv => (csr.vertexIds(lv), csr.degree(lv))).toDF("x", "degree")
    Oracle.assertEquivalent(degrees,
      """SELECT x, COUNT(*) AS degree FROM (
        |  SELECT u AS x FROM edges UNION ALL SELECT v AS x FROM edges
        |) GROUP BY x""".stripMargin,
      "edges" -> edges.toSeq.toDF("u", "v"))
  }

  test("edgeBalance of a perfectly even assignment is 1") {
    val edges = TestGraphs.path(16)
    val assign = edges.indices.map(_ % 4).toArray
    assert(LocalMetrics.edgeBalance(triples(edges, assign)) == 1.0)
  }

  test("edgeBalance detects imbalance") {
    val edges = TestGraphs.path(10)
    val assign = Array.fill(edges.length)(0)
    assign(0) = 1 // 9 vs 1 on two used partitions
    val eb = LocalMetrics.edgeBalance(triples(edges, assign))
    assert(math.abs(eb - 1.8) < 1e-9) // max 9 / mean 5
  }

  test("replicationFactor rejects an empty graph") {
    intercept[IllegalArgumentException](LocalMetrics.replicationFactor(Array.empty))
  }
}
