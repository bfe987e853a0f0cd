"""The Mini language: AST, parser, canonical printer, closure compiler and interpreter."""
