import pytest

from roottrace.tlds import RegistryError, default_registry, load_registry, load_registry_path


def test_load_basic():
    reg = load_registry(["# Version 2022041200", "COM", "NET"])
    assert reg.entries == {b"com", b"net"}


def test_punycode_entry_lowercased():
    reg = load_registry(["XN--P1AI"])
    assert reg.entries == {b"xn--p1ai"}
    assert reg.is_valid_tld(b"XN--P1AI")


def test_empty_registry_rejected():
    with pytest.raises(RegistryError):
        load_registry([])
    with pytest.raises(RegistryError):
        load_registry(["# only comments"])


def test_bad_entry_reports_line_number(tmp_path):
    with pytest.raises(RegistryError) as err:
        load_registry(["COM", "not a tld"], source_description="f.txt")
    assert "f.txt:2" in str(err.value)
    # only ASCII letters, digits and '-' make an entry, and only ASCII
    # spaces, tabs and a line end are stripped: not a KELVIN SIGN, which
    # str.lower() folds to "k", nor other Unicode spaces and separators
    for bad in ["\u212a", "com\u00a0", "\x1ccom", "com\x1cnet", "com\u2028net", "\u0441om"]:
        with pytest.raises(RegistryError, match="f.txt:3: invalid TLD entry"):
            load_registry(["# list", "NET", bad, "ORG"], source_description="f.txt")
    # a file is split at "\n" alone, so a separator does not shift the
    # line numbers of later errors
    path = tmp_path / "tlds.txt"
    path.write_bytes("# list\r\nCOM\r\n \tNET\t \r\nCOM\x1cNET\nORG\n".encode())
    with pytest.raises(RegistryError, match=r"tlds.txt:4: invalid TLD entry 'COM\\x1cNET'"):
        load_registry_path(path)
    path.write_bytes(b"# list\r\nCOM\r\n \tNET\t \r\nORG\n")
    assert load_registry_path(path).entries == {b"com", b"net", b"org"}


def test_duplicates_collapse():
    reg = load_registry(["COM", "com", "Com"])
    assert len(reg) == 1


def test_lookup_is_case_insensitive():
    reg = load_registry(["COM"])
    assert reg.is_valid_tld(b"COM")
    assert reg.is_valid_tld(b"com")
    assert reg.is_valid_tld(b"CoM")
    assert reg.entries == {b"com"}


def test_out_of_alphabet_bytes_are_invalid():
    reg = load_registry(["COM"])
    assert not reg.is_valid_tld(b"\xff\x01")
    assert not reg.is_valid_tld(b"co_m")
    assert not reg.is_valid_tld(b"com\xff")


def test_uppercase_membership_property():
    reg = default_registry()
    for entry in reg.entries:
        assert reg.is_valid_tld(entry.upper())


def test_default_registry_contents():
    reg = default_registry()
    assert reg.is_valid_tld(b"com")
    assert reg.is_valid_tld(b"arpa")
    # the one-word precedence witness needs this entry
    assert reg.is_valid_tld(b"networks")
    assert not reg.is_valid_tld(b"internal")
    assert not reg.is_valid_tld(b"appletalk")


def test_load_registry_path_description_is_deterministic(tmp_path):
    path = tmp_path / "tlds.txt"
    path.write_text("# snapshot\nCOM\nNET\n")
    first = load_registry_path(path)
    second = load_registry_path(path)
    assert first.source_description == second.source_description
    assert "sha256:" in first.source_description
    assert str(path) in first.source_description


def test_env_override(tmp_path, monkeypatch):
    path = tmp_path / "alt.txt"
    path.write_text("ZZ\n")
    monkeypatch.setenv("ROOTTRACE_TLDS", str(path))
    reg = default_registry()
    assert reg.entries == {b"zz"}
