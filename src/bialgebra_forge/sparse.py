"""The update rules shared by every sparse term map (key -> nonzero value)."""


def accumulate(out: dict, key, value) -> None:
    """out[key] += value, dropping the key when the sum is zero."""
    old = out.get(key)
    if old is None:
        out[key] = value
        return
    value = old + value
    if value:
        out[key] = value
    else:
        del out[key]


def deduct(out: dict, key, value) -> None:
    """out[key] -= value, dropping the key when the difference is zero."""
    old = out.get(key)
    if old is None:
        out[key] = -value
        return
    value = old - value
    if value:
        out[key] = value
    else:
        del out[key]
