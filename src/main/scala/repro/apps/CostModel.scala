package repro.apps

/** Linear cost model translating the engine's exact per-superstep counters
  * into modeled elapsed time (DESIGN.md §5).
  *
  * Calibrated against the paper's cluster (Table 3: 24-core nodes,
  * InfiniBand EDR): ~20 ns per scanned edge on the critical-path machine,
  * ~1 ns per communicated byte (≈1 GB/s effective per machine after
  * software overheads), 5 ms barrier per superstep. Only `ET` uses this
  * model — `COM` and `WB` are counted, not modeled.
  */
object CostModel {
  val SecondsPerEdge = 20e-9
  val SecondsPerByte = 1e-9
  val SecondsPerSuperstep = 5e-3

  /** Bytes per gather/scatter record: 8-byte vertex id + 8-byte value. */
  val RecordBytes = 16L

  def superstepSeconds(maxLocalWork: Long, bytes: Long): Double =
    maxLocalWork * SecondsPerEdge + bytes * SecondsPerByte + SecondsPerSuperstep
}
