#!/bin/sh
# Regenerates the evaluation report.
set -x
cargo build --release -p ams-bench
./target/release/report > results/report.txt 2> results/report.log
