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
  * the issues (JIT and Spark warm-up), it runs the given number of passes
  * (default 30) and prints, for each step, the median ms over every timed
  * complaint and its share of the sum of the medians:
  *  - plan: Catalyst planning of the data step's scan (`select`, `toRdd`);
  *  - job: the data step's Spark job;
  *  - merge: the driver's merge of the tasks' buffers;
  *  - fromBuffers: the drill-down's relations and statistics;
  *  - rankDrilldown: featurization, the fits and the ranking.
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
        val fact = CovidSynth.corruptedUs(spark, issue, 42).cache()
        fact.count()
        (fact, Map("day" -> CovidSynth.dayKey(issue.day)), Complaint(AggType.Sum, issue.dir))
      }
      val steps = Vector("plan", "job", "merge", "fromBuffers", "rankDrilldown")
      val times = Vector.fill(steps.size)(ArrayBuffer.empty[Double])
      for (pass <- -2 until passes; (fact, filters, complaint) <- issues) {
        var t = System.nanoTime()
        def lap(step: Int): Unit = {
          val now = System.nanoTime()
          if (pass >= 0) times(step) += (now - t) / 1e6
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
    } finally spark.stop()
  }
}
