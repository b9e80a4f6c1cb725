"""stabsim benchmark harness; see NOTES.md."""
