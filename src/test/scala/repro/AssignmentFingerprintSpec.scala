package repro

import org.apache.spark.rdd.RDD
import repro.apps.GasEngine
import repro.baselines.{HDRF, HashPartitioners, HybridGinger, LabelPropagation, MultilevelVertex,
  Oblivious, SNE, Sheep, VertexCutConversion}
import repro.core.{DistributedNE, SequentialNE}
import repro.graph.Hashing

/** Pins the exact output of every partitioner and of the GAS engine under
  * fixed seeds.
  *
  * The constants are fingerprints of the outputs as first recorded; a pure
  * refactor of the adjacency walk (interning order, adjacency order, local
  * endpoint ids) must leave every one of them unchanged. A deliberate
  * change of an algorithm's output updates the constant in the same change.
  */
class AssignmentFingerprintSpec extends SparkSpec {

  private val p = 8
  private val skewed = TestGraphs.skewed(500, 3500)
  private val ring = TestGraphs.ring(200)

  /** Order-sensitive 64-bit fold of a sequence of longs. */
  private def fingerprint(xs: Iterator[Long]): Long =
    xs.foldLeft(0x5EEDL)((h, x) => Hashing.mix64(h ^ x))

  private def ofParts(parts: Array[Int]): Long =
    fingerprint(Iterator.single(parts.length.toLong) ++ parts.iterator.map(_.toLong))

  private def ofTriples(rdd: RDD[(Long, Long, Int)]): Long = {
    val triples = rdd.collect().sortBy(t => (t._1, t._2))
    fingerprint(triples.iterator.flatMap(t => Iterator(t._1, t._2, t._3.toLong)))
  }

  private def ofStats(s: GasEngine.Stats): Iterator[Long] =
    Iterator(s.supersteps.toLong, s.comBytes,
      java.lang.Double.doubleToLongBits(s.elapsedSeconds),
      java.lang.Double.doubleToLongBits(s.workBalance)) ++ s.workPerPart.iterator

  private val edgePartitioners: Seq[(String, Array[(Long, Long)] => Array[Int])] = Seq(
    "NE" -> (e => SequentialNE.partition(e, SequentialNE.Config(p))),
    "SNE one chunk" -> (e => SNE.partition(e, p, chunkEdges = math.max(1, e.length))),
    "SNE eight chunks" -> (e => SNE.partition(e, p, chunkEdges = math.max(1, e.length / 8))),
    "Sheep" -> (e => Sheep.partition(e, p)),
    "P.M." -> (e => VertexCutConversion.fromVertexPartition(MultilevelVertex.partition(e, p), e)),
    "X.P." -> (e => VertexCutConversion.fromVertexPartition(LabelPropagation.xtrapulp(e, p), e)),
    "Spinner" -> (e => VertexCutConversion.fromVertexPartition(LabelPropagation.spinner(e, p), e)),
    "HDRF" -> (e => HDRF.partition(e, p)),
    "H.G." -> (e => HybridGinger.partition(e, p)))

  /** Spark-side partitioners, each run on the edges split into 4 slices. */
  private val rddPartitioners: Seq[(String, (RDD[(Long, Long)], Int) => RDD[(Long, Long, Int)])] = Seq(
    "Rand." -> HashPartitioners.random1D,
    "2D-R." -> HashPartitioners.grid,
    "DBH" -> HashPartitioners.dbh,
    "Obli." -> Oblivious.partition)

  private val expected: Map[(String, String), Long] = Map(
    ("NE", "skewed") -> 0xd044dbd9b88d3657L,
    ("NE", "ring") -> 0x8391037f6b3b8574L,
    ("SNE one chunk", "skewed") -> 0x6dab941fce5547f1L,
    ("SNE one chunk", "ring") -> 0x2944e4ccc5520554L,
    ("SNE eight chunks", "skewed") -> 0x57b9d12aa83429d6L,
    ("SNE eight chunks", "ring") -> 0xe2ffc96db33d8b72L,
    ("Sheep", "skewed") -> 0xdb404a986b2398f1L,
    ("Sheep", "ring") -> 0x2944e4ccc5520554L,
    ("P.M.", "skewed") -> 0xa03df29962e932daL,
    ("P.M.", "ring") -> 0xc3ba762c4bfba7b2L,
    ("X.P.", "skewed") -> 0x7ee4e26ca5bc1317L,
    ("X.P.", "ring") -> 0x58e0c06208be1f88L,
    ("Spinner", "skewed") -> 0x9b398996e555b25eL,
    ("Spinner", "ring") -> 0xd2a19a426f2d410bL,
    ("HDRF", "skewed") -> 0x31889a4b87568490L,
    ("HDRF", "ring") -> 0x2bfac28c68289889L,
    ("H.G.", "skewed") -> 0x0f72b56bdcedeb21L,
    ("H.G.", "ring") -> 0x46a1774cbfd7949bL,
    ("Rand.", "skewed") -> 0xc680cd97d21d949eL,
    ("Rand.", "ring") -> 0x3404543dbe0b9e70L,
    ("2D-R.", "skewed") -> 0x9699a7384c9e57ffL,
    ("2D-R.", "ring") -> 0x5d753698cf8e1f5cL,
    ("DBH", "skewed") -> 0xf4967c00a6657f2eL,
    ("DBH", "ring") -> 0xba8c62515519d86fL,
    ("Obli.", "skewed") -> 0x15e029fa624629e7L,
    ("Obli.", "ring") -> 0x79b07b2d74657961L)

  private val graphs = Seq("skewed" -> skewed, "ring" -> ring)

  for ((name, run) <- edgePartitioners; (gname, g) <- graphs) {
    test(s"$name on the $gname graph keeps its recorded assignment") {
      val got = ofParts(run(g))
      assert(got == expected((name, gname)), f"fingerprint is now 0x$got%016xL")
    }
  }

  for ((name, run) <- rddPartitioners; (gname, g) <- graphs) {
    test(s"$name on the $gname graph keeps its recorded assignment") {
      val got = ofTriples(run(spark.sparkContext.parallelize(g.toSeq, 4), p))
      assert(got == expected((name, gname)), f"fingerprint is now 0x$got%016xL")
    }
  }

  test("GAS engine SSSP, WCC and PageRank keep their recorded outputs") {
    val engine = new GasEngine(skewed, TestGraphs.randomAssign(skewed, p), p)
    val (dist, ssspStats) = engine.sssp(skewed(0)._1)
    val (comp, wccStats) = engine.wcc()
    val (rank, prStats) = engine.pageRank(10)
    val got = Seq(
      fingerprint(dist.iterator ++ ofStats(ssspStats)),
      fingerprint(comp.iterator ++ ofStats(wccStats)),
      fingerprint(rank.iterator.map(java.lang.Double.doubleToLongBits) ++ ofStats(prStats)))
    assert(got == Seq(0xfa061b4960415e37L, 0xca2d99be0e9d5c6cL, 0x56bd5d86061cc0e3L),
      got.map(x => f"0x$x%016xL").mkString("fingerprints are now ", ", ", ""))
  }

  test("Distributed NE keeps its recorded assignment") {
    val res = DistributedNE.partition(spark, spark.sparkContext.parallelize(skewed.toSeq, 4),
      DistributedNE.Config(numPartitions = p))
    val got = ofTriples(res.assignments)
    res.assignments.unpersist(blocking = false)
    assert(got == 0xca2ae9f42a3ce13eL, f"fingerprint is now 0x$got%016xL")
  }
}
