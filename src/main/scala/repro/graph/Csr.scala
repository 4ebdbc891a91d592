package repro.graph

import scala.collection.mutable.ArrayBuffer

/** Immutable compressed-sparse-row view of an undirected edge list — the
  * adjacency every neighbor-expansion walk runs over (NE, SNE, the D.NE
  * allocation processes of §3.3/§4, and the vertex-partitioning baselines).
  *
  *  - `vertexIds`/`vertexIndex` — local↔global vertex ids; local ids are
  *                                 handed out in first-appearance order
  *                                 (source before destination, edge order)
  *  - `lsrc`/`ldst`             — local endpoint ids of each edge; the
  *                                 global id of `lsrc(e)` is
  *                                 `vertexIds(lsrc(e))`
  *  - `adjOff`/`adjEdge`        — adjacency: the edges incident to local
  *                                 vertex `lv` are `adjEdge(adjOff(lv) until
  *                                 adjOff(lv + 1))`, in edge order; each edge
  *                                 appears under both endpoints (a self-loop
  *                                 twice under its one vertex)
  */
final class Csr private (
    val vertexIds: Array[Long],
    val vertexIndex: java.util.HashMap[Long, Int],
    val lsrc: Array[Int],
    val ldst: Array[Int],
    val adjOff: Array[Int],
    val adjEdge: Array[Int]) extends Serializable {

  def numEdges: Int = lsrc.length
  def numVertices: Int = vertexIds.length

  /** The endpoint of edge `e` that is not local vertex `lv`. */
  def other(e: Int, lv: Int): Int = if (lsrc(e) == lv) ldst(e) else lsrc(e)

  /** Number of adjacency entries of local vertex `lv`. */
  def degree(lv: Int): Int = adjOff(lv + 1) - adjOff(lv)
}

object Csr {

  def apply(edges: Array[(Long, Long)]): Csr = {
    val m = edges.length
    val vertexIndex = new java.util.HashMap[Long, Int]()
    val ids = new ArrayBuffer[Long]()
    def intern(x: Long): Int =
      if (vertexIndex.containsKey(x)) vertexIndex.get(x)
      else { val nid = ids.length; vertexIndex.put(x, nid); ids += x; nid }
    val lsrc = new Array[Int](m)
    val ldst = new Array[Int](m)
    var i = 0
    while (i < m) { lsrc(i) = intern(edges(i)._1); ldst(i) = intern(edges(i)._2); i += 1 }
    val n = ids.length
    val adjOff = new Array[Int](n + 1)
    i = 0
    while (i < m) { adjOff(lsrc(i) + 1) += 1; adjOff(ldst(i) + 1) += 1; i += 1 }
    i = 0
    while (i < n) { adjOff(i + 1) += adjOff(i); i += 1 }
    val cursor = adjOff.clone()
    val adjEdge = new Array[Int](2 * m)
    i = 0
    while (i < m) {
      adjEdge(cursor(lsrc(i))) = i; cursor(lsrc(i)) += 1
      adjEdge(cursor(ldst(i))) = i; cursor(ldst(i)) += 1
      i += 1
    }
    new Csr(ids.toArray, vertexIndex, lsrc, ldst, adjOff, adjEdge)
  }
}
