package repro.bench

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession

import repro.baselines._
import repro.core.{DistributedNE, SequentialNE}
import repro.graph.LocalMetrics

import scala.collection.immutable.SeqMap

/** Shared helpers for the table benches: run a named partitioner on a
  * graph, time it, and compute the §2 quality metrics on the result.
  */
object Runners {

  final case class RunResult(method: String, rf: Double, eb: Double, vb: Double,
                             seconds: Double, edges: Array[(Long, Long)],
                             assign: Array[Int])

  /** Collects an RDD assignment into aligned (edges, parts) arrays. */
  def collectAssign(rdd: RDD[(Long, Long, Int)]): (Array[(Long, Long)], Array[Int]) = {
    val triples = rdd.collect()
    scala.util.Sorting.quickSort(triples)(Ordering.by[(Long, Long, Int), (Long, Long)](t => (t._1, t._2)))
    (triples.map(t => (t._1, t._2)), triples.map(_._3))
  }

  def metricsOf(method: String, edges: Array[(Long, Long)], assign: Array[Int],
                seconds: Double): RunResult = {
    val triples = edges.indices.map(i => (edges(i)._1, edges(i)._2, assign(i))).toArray
    RunResult(method,
      LocalMetrics.replicationFactor(triples),
      LocalMetrics.edgeBalance(triples),
      LocalMetrics.vertexBalance(triples),
      seconds, edges, assign)
  }

  private def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Spark-side methods: consume the edge RDD (the distributed systems). */
  private val sparkSide: SeqMap[String, (RDD[(Long, Long)], Int) => RDD[(Long, Long, Int)]] = SeqMap(
    "Rand." -> HashPartitioners.random1D,
    "2D-R." -> HashPartitioners.grid,
    "DBH" -> HashPartitioners.dbh,
    "Obli." -> Oblivious.partition)

  /** Driver-side comparators: consume the pre-collected edge array (the
    * sequential/external systems of the paper).
    */
  private val driverSide: SeqMap[String, (Array[(Long, Long)], Int) => Array[Int]] = SeqMap(
    "H.G." -> ((e, p) => HybridGinger.partition(e, p)),
    "HDRF" -> HDRF.partition,
    "NE" -> ((e, p) => SequentialNE.partition(e, SequentialNE.Config(p))),
    // SNE's buffer holds ~100 M edges in the original; every stand-in fits
    // in one buffer, so the faithful setting is a single chunk. Smaller
    // buffers (the memory/quality trade-off) are exercised in unit tests.
    "SNE" -> ((e, p) => SNE.partition(e, p, chunkEdges = math.max(1, e.length))),
    "Sheep" -> Sheep.partition,
    "P.M." -> ((e, p) => VertexCutConversion.fromVertexPartition(MultilevelVertex.partition(e, p), e)),
    "X.P." -> ((e, p) => VertexCutConversion.fromVertexPartition(LabelPropagation.xtrapulp(e, p), e)),
    "Spinner" -> ((e, p) => VertexCutConversion.fromVertexPartition(LabelPropagation.spinner(e, p), e)))

  /** Every method name [[run]] accepts. */
  val methods: Seq[String] = (sparkSide.keys ++ driverSide.keys).toSeq :+ "D.NE"

  /** Runs the partitioner named as in the paper's tables. D.NE's time
    * excludes collecting its assignment; the other Spark-side methods are
    * timed through the collect that materialises them.
    */
  def run(method: String, spark: SparkSession, rdd: RDD[(Long, Long)],
          edges: Array[(Long, Long)], p: Int): RunResult =
    method match {
      case "D.NE" =>
        val (res, s) = timed(DistributedNE.partition(spark, rdd, DistributedNE.Config(numPartitions = p)))
        val (es, as) = collectAssign(res.assignments)
        res.assignments.unpersist(blocking = false)
        metricsOf(method, es, as, s)
      case m if sparkSide.contains(m) =>
        val ((es, as), s) = timed(collectAssign(sparkSide(m)(rdd, p)))
        metricsOf(method, es, as, s)
      case m if driverSide.contains(m) =>
        val (as, s) = timed(driverSide(m)(edges, p))
        metricsOf(method, edges, as, s)
      case other => throw new IllegalArgumentException(s"unknown partitioner: $other")
    }
}
