module notebookos/bench

go 1.24

require notebookos v0.0.0

replace notebookos => ../
