//! Evidence binaries for the cholcomm workspace (`src/bin`): each prints
//! one committed `results/` file to stdout, and CI regenerates and
//! compares every one byte for byte.  Wall-clock numbers go to stderr;
//! the timed benchmark is `perfbench` (`benchmark/`).
