"""End-to-end benchmark of the SeMPE reproduction (see README.md)."""
