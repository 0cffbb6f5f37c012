package repro.perfbench

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed interval at a layer boundary. Spans of one complaint share
  * `complaint`; `parent` is the enclosing span's id, or -1.
  */
final case class Span(id: Int, parent: Int, complaint: Int, name: String, startNs: Long, endNs: Long) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** Records spans and per-complaint counts in memory. Each span also labels
  * the Spark jobs submitted inside it with its name, through the job
  * description, so the job counter can attribute jobs to phases.
  */
final class Tracer(sc: SparkContext) {
  private val done = mutable.ArrayBuffer.empty[Span]
  private var open: List[(Int, String)] = Nil
  private var nextId = 0
  private val counts = mutable.HashMap.empty[(Int, String), Double]
  var complaint: Int = -1

  def span[A](name: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.map(_._1).getOrElse(-1)
    open = (id, name) :: open
    sc.setJobDescription(name)
    val t0 = System.nanoTime()
    try body
    finally {
      done += Span(id, parent, complaint, name, t0, System.nanoTime())
      open = open.tail
      sc.setJobDescription(open.headOption.map(_._2).orNull)
    }
  }

  /** Adds `v` to a per-complaint count. */
  def add(name: String, v: Double): Unit = counts((complaint, name)) = counts.getOrElse((complaint, name), 0.0) + v
  /** Keeps the largest value seen for a per-complaint count. */
  def max(name: String, v: Double): Unit = counts((complaint, name)) = math.max(counts.getOrElse((complaint, name), v), v)

  def spans: Vector[Span] = done.toVector
  def count(c: Int, name: String): Double = counts.getOrElse((c, name), 0.0)

  /** Total seconds of the spans called `name` in complaint `c`. */
  def seconds(c: Int, name: String): Double = done.iterator.filter(s => s.complaint == c && s.name == name).map(_.seconds).sum
}

/** Counts Spark jobs and tasks per complaint and phase. The client thread
  * tags jobs with the local property [[JobCounter.Complaint]]; the phase is
  * the job description. Listener events arrive asynchronously, so read the
  * counts only after the Spark context has stopped, which drains the bus.
  */
final class JobCounter extends SparkListener {
  final class Job(val id: Int, val complaint: String, val phase: String, val start: Long) {
    @volatile var end: Long = -1L
    val tasks = new AtomicInteger()
    @volatile var stages: Int = 0
  }
  private val jobs = new ConcurrentHashMap[Int, Job]()
  private val stageJob = new ConcurrentHashMap[Int, Int]()

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val props = Option(e.properties)
    def prop(k: String) = props.flatMap(p => Option(p.getProperty(k))).getOrElse("")
    val job = new Job(e.jobId, prop(JobCounter.Complaint), prop("spark.job.description"), e.time)
    job.stages = e.stageIds.size
    jobs.put(e.jobId, job)
    e.stageIds.foreach(s => stageJob.put(s, e.jobId))
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = Option(jobs.get(e.jobId)).foreach(_.end = e.time)

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
    Option(stageJob.get(e.stageId)).flatMap(j => Option(jobs.get(j))).foreach(_.tasks.incrementAndGet())

  def all: Vector[Job] = jobs.values.asScala.toVector.sortBy(_.id)
}

object JobCounter {
  val Complaint = "perfbench.complaint"
}
