// Package pynb implements the notebook language of the live platform: lexer,
// parser, AST, interpreter, and the AST analysis NotebookOS uses for kernel
// state replication (paper §3.2.4). The real system analyzes Python ASTs to
// find globals mutated by a cell so they can be synchronized to standby
// replicas via Raft; pynb reproduces that mechanism end to end for the
// Python subset the platform's cells use.
//
// The language, one statement per line:
//   - `name = expr` and expression statements, and `#` comments;
//   - int, float and string literals, and names;
//   - `+ - * /`, unary `-` and parentheses;
//   - calls with positional and keyword arguments, and attribute reads;
//   - one core builtin, print; the runtime registers the rest.
//
// Everything else is refused when the cell is parsed, with a *SyntaxError
// that names the construct: if/elif/else, for, pass, break, continue and
// any indented line; augmented and indexed assignment; list literals and
// indexing; comparisons, in, and/or/not; True, False and None; the //, %
// and ** operators; method calls. An expression nested more than maxDepth
// levels deep is refused too, so no cell can exhaust the parser's or the
// interpreter's stack.
package pynb
