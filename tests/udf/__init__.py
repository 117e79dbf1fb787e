"""UDF tests, and the per-record oracle a feed's function chain is held to."""


def per_record_chain(functions, registry, records, ctx):
    """Each record through the attached ``functions`` one call at a time.

    One :meth:`FunctionRegistry.invoke` / ``invoke_java`` call per record
    and function, a collection result unnested and a null one dropped —
    what ``make_invoker``'s batch steps must equal, rows and charges.
    """
    rows = []
    for record in records:
        current = [record]
        for fn in functions:
            produced = []
            for rec in current:
                if fn.is_java:
                    result = registry.invoke_java(
                        fn.library or "udflib", fn.name, [rec], ctx
                    )
                else:
                    result = registry.invoke(fn.name, [rec], ctx)
                if isinstance(result, list):
                    produced.extend(result)
                elif result is not None:
                    produced.append(result)
            current = produced
        rows.extend(current)
    return rows
