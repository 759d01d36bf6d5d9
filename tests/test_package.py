import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "agmceliece"
ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ENV_READERS
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "os"
                and any(alias.name in ENV_READERS for alias in node.names)):
            lines.append(node.lineno)
    return lines


def test_no_module_reads_the_environment():
    # behaviour is set by arguments only: no env-var switches in the package
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    hits = {m.name: _env_reads(ast.parse(m.read_text())) for m in modules}
    assert not {name: lines for name, lines in hits.items() if lines}
