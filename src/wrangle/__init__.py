"""Component-based traffic data wrangling; the package root exports nothing.

Import the module that owns a part: ``table`` (the table model and CSV
codec), ``expr`` (expressions), ``relops`` (relational ops), ``traffic``,
``weather``, ``spacetime`` and ``chart`` (domain ops), ``ops`` (the op
registry), ``workflow`` (workflows), ``cli`` (the command), ``gen`` (the
data generator), ``errors`` (the error families).
"""
