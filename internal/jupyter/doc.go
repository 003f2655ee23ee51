// Package jupyter implements the subset of the IPython messaging protocol
// NotebookOS uses (paper §4): execute_request/execute_reply exchanges and
// NotebookOS's yield_request conversion (§3.2.2). Messages follow the
// Jupyter envelope structure (header, parent header, metadata, content) so
// any Jupyter-style client maps onto them directly.
package jupyter
