"""Builds the engine and the benchmark from source with the Scala compiler
that ships in Spark's jar directory.

The program's sources (`src/main/scala`) and the benchmark's
(`perfbench/src`) compile together into one class directory under
`.bench_build/perfbench`, named by a hash of every source file, so a
rebuild happens only when a source changes.
"""

import glob
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "perfbench" / "src"]


def spark_jars() -> Path:
    """Spark's jar directory: $SPARK_HOME/jars, else next to spark-submit."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit is None:
            sys.exit("build: set SPARK_HOME or put spark-submit on PATH")
        home = str(Path(os.path.realpath(submit)).parent.parent)
    jars = Path(home) / "jars"
    if not jars.is_dir():
        sys.exit(f"build: no Spark jar directory at {jars}")
    return jars


def duckdb_jar():
    """The DuckDB JDBC driver from the local Coursier, Ivy or Maven cache."""
    home = Path.home()
    roots = [os.environ.get("COURSIER_CACHE"), home / ".cache" / "coursier", home / ".ivy2", home / ".m2"]
    for r in roots:
        if r and Path(r).is_dir():
            hits = sorted(glob.glob(f"{r}/**/duckdb_jdbc*.jar", recursive=True))
            if hits:
                return Path(hits[-1])
    return None


def sources():
    files = []
    for d in SOURCE_DIRS:
        files += sorted(d.rglob("*.scala"))
    if not any(f.is_relative_to(SOURCE_DIRS[0]) for f in files):
        sys.exit(f"build: no program sources under {SOURCE_DIRS[0].relative_to(ROOT)}")
    return files


def build() -> Path:
    """Compiles if needed; returns the class directory."""
    jars = spark_jars()
    compiler = [next(iter(sorted(jars.glob(f"scala-{part}-2.13*.jar"))), None)
                for part in ("compiler", "library", "reflect")]
    if None in compiler:
        sys.exit(f"build: no Scala 2.13 compiler in {jars}")
    files = sources()
    h = hashlib.sha256()
    for f in files + compiler:
        h.update(str(f.relative_to(ROOT) if f.is_relative_to(ROOT) else f.name).encode())
        h.update(f.read_bytes() if f.suffix == ".scala" else b"")
    classes = OUT / f"classes-{h.hexdigest()[:16]}"
    if (classes / "BUILT").exists():
        return classes
    for old in OUT.glob("classes-*"):
        shutil.rmtree(old)
    classes.mkdir(parents=True)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", os.pathsep.join(map(str, compiler)),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-cp", f"{jars}/*", "-d", str(classes)]
    print(f"build: compiling {len(files)} Scala files", file=sys.stderr)
    done = subprocess.run(cmd + [str(f) for f in files], stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        shutil.rmtree(classes)
        sys.exit(f"build: scalac failed with code {done.returncode}")
    (classes / "BUILT").write_text("ok\n")
    return classes


if __name__ == "__main__":
    print(build())
