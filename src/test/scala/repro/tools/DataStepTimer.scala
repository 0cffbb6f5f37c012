package repro.tools

import org.apache.spark.sql.SparkSession
import repro.core.reptile._
import repro.synth.CovidSynth
import scala.collection.mutable.ArrayBuffer

/** Times one `rankDim` of each of the 16 US COVID issues (CovidExp's
  * configuration) step by step, so that a change on the Spark side can be
  * sized on its own:
  *
  *   sbt "Test/runMain repro.tools.DataStepTimer 30"
  *
  * Each issue's fact table is cached first. After two untimed passes over
  * the issues (JIT and Spark warm-up), it reads each table through a new
  * DataFrame and runs one pass more and then the given number of passes
  * (default 30). It prints, for each step, the median ms over every
  * complaint of the given passes and its share of the sum of the medians:
  *  - plan: the data step's scan (`Reptile.scan`: names resolved and bound
  *    to the DataFrame's own planned RDD);
  *  - job: the data step's Spark job;
  *  - merge: the driver's merge of the tasks' buffers;
  *  - fromBuffers: the drill-down's relations and statistics;
  *  - rankDrilldown: featurization, the fits and the ranking.
  * Then the median plan ms of each new DataFrame's first call, whose scan
  * also has Catalyst analyse, optimise, plan and code-generate the
  * DataFrame (what a complaint on a new DataFrame pays once).
  */
object DataStepTimer {

  def main(args: Array[String]): Unit = {
    val passes = args.headOption.fold(30)(_.toInt)
    val spark = SparkSession.builder.master("local[*]").appName("DataStepTimer")
      .config("spark.sql.shuffle.partitions", "8").config("spark.ui.enabled", "false").getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try {
      val cfg = ReptileConfig(emIters = 12, logTransform = true, sumDirect = true, randomEffects = "intercept")
      val dims = Vector(Dimension("time", Vector("day")), Dimension("geo", Vector("state")))
      val used = Reptile.drilldownOf(dims, Map("time" -> 1), "geo")
      val attrs = Drilldown.attrsOf(used)
      val issues = CovidSynth.usIssues.map { issue =>
        CovidSynth.corruptedUs(spark, issue, 42).cache().count()
        (issue, Map("day" -> CovidSynth.dayKey(issue.day)), Complaint(AggType.Sum, issue.dir))
      }
      // New DataFrames over the cached tables: the warm-up passes run on one
      // set, the first timed pass is the other set's first calls.
      def frames() = issues.map { case (issue, filters, complaint) =>
        (CovidSynth.corruptedUs(spark, issue, 42), filters, complaint)
      }
      val (warm, timed) = (frames(), frames())
      val steps = Vector("plan", "job", "merge", "fromBuffers", "rankDrilldown")
      val times = Vector.fill(steps.size)(ArrayBuffer.empty[Double])
      val firstPlans = ArrayBuffer.empty[Double]
      for (pass <- -2 to passes; (fact, filters, complaint) <- if (pass < 0) warm else timed) {
        var t = System.nanoTime()
        def lap(step: Int): Unit = {
          val now = System.nanoTime()
          if (pass > 0) times(step) += (now - t) / 1e6
          else if (pass == 0 && step == 0) firstPlans += (now - t) / 1e6
          t = now
        }
        val (rdd, types) = Reptile.scan(fact, attrs, "value")
        lap(0)
        val parts = Reptile.partials(rdd, types, Array(attrs.indices.toArray))
        lap(1)
        val merged = Reptile.merge(parts.map(_(0)), attrs.size)
        lap(2)
        val dd = Drilldown.fromBuffers(used, merged, types.toSeq, "value")
        lap(3)
        Reptile.rankDrilldown(dd, filters, complaint, Nil, cfg)
        lap(4)
      }
      val medians = times.map(ts => ts.sorted.apply(ts.size / 2))
      println(s"DataStepTimer: ${issues.size} US COVID issues x $passes passes, median ms per complaint")
      steps.indices.foreach { s =>
        println(f"  ${steps(s)}%-14s ${medians(s)}%8.3f ms  ${100 * medians(s) / medians.sum}%5.1f%%")
      }
      println(f"  ${"sum"}%-14s ${medians.sum}%8.3f ms")
      val firsts = firstPlans.sorted
      println(f"  plan of a new DataFrame's first call: median ${firsts(firsts.size / 2)}%.3f ms " +
        f"(${firsts.size} DataFrames, ${firsts.head}%.3f-${firsts.last}%.3f ms)")
    } finally spark.stop()
  }
}
